//! File-backed persistent heap for the NVTraverse reproduction.
//!
//! The paper's evaluation runs every structure on a *persistent heap*
//! (`libvmmalloc`, §5.1): node allocations come from a memory-mapped pool
//! file, so the nodes — and the allocator's own metadata — survive process
//! death and power failure. The seed reproduction only had the volatile Rust
//! heap plus a crash *simulator*; this crate supplies the real thing:
//!
//! * [`Pool`] — creates/opens a pool file and maps it `MAP_SHARED`, at the
//!   same virtual base on every open when possible (embedded absolute
//!   pointers then remain valid), falling back to a *rebased* mapping that
//!   only offset-based access may use.
//! * A **scalable recoverable allocator** — size-classed blocks with a
//!   persistent 16-byte header each (size, class, allocated bit) and a
//!   persisted heap frontier. The hot path is served from per-thread
//!   magazines backed by one free bitmap per size class and a CAS-carved
//!   slab frontier (see the private `engine` module's docs for the full
//!   design).
//!   The persist ordering guarantees that **no crash point corrupts the
//!   heap**: a crash never double-allocates or tears metadata, and blocks
//!   it strands (in-flight allocations, EBR-retired-but-unreclaimed nodes)
//!   stay allocated only until the next open — reopening after a crash
//!   rebuilds all volatile allocator state from one read-only heap walk,
//!   and the typed open of every root ([`Pool::collect`], which the
//!   `open_roots`/`root::<S>()` calls of the `nvtraverse` crate run with
//!   each root's tracer) runs a **root-driven mark-sweep GC** (the [`gc`]
//!   module) that returns every allocated block unreachable from the roots
//!   to the free lists, reporting the reclaim in [`RecoveryReport`], before
//!   any structure attaches. A clean close instead **seals** a summary of
//!   the allocator's state, and the next open reads it: no walk, no
//!   collection ([`RecoveryReport::sealed`]; the private `seal` module).
//! * A **root registry** — up to [`MAX_ROOTS`] named offsets in the pool
//!   header, so a structure can be found again after reopen
//!   (open → [`Pool::root_offset`] → attach → `recover()`; higher layers
//!   wrap this as the typed `root::<S>()` API).
//!
//! Flushes and fences over the mapped region go through
//! [`nvtraverse_pmem::MmapBackend`]: `clwb`/`sfence` on x86-64 (the paper's
//! protocol, and the correct one on a DAX NVRAM mapping) with an `msync`
//! fallback for targets or deployments that need it.
//!
//! # Durability contract of the allocator
//!
//! [`Pool::alloc`] and [`Pool::dealloc`] do not fence, and the allocated header usually shares its cache line with
//! the payload's first bytes, whose flush is the caller's job anyway. The
//! contract: **flush the first line of the block's contents and fence
//! before durably publishing the block** — which every durability policy in
//! this repository already does between initializing a node and the CAS
//! that links it (`flush_range(node)` + fence). A caller that skips it
//! risks (only) recovering the block as free after a power failure —
//! exactly as if the allocation had never durably happened, the correct
//! outcome for data that was itself not yet persistent. See the `engine`
//! module docs for the full deferred-persistence design and its bounded
//! leak-on-power-failure trade-offs.
//!
//! # Many pools per process
//!
//! Pools are **first-class values**: any number can be open concurrently in
//! one process. Each open pool registers its mapped region with
//! [`nvtraverse_pmem::heap`], whose sorted-snapshot lookup routes every
//! `free`/EBR-reclaim back to the owning pool, and exposes its allocation
//! entry point as [`Pool::alloc_target`] so higher layers can direct node
//! allocation per structure (the `nvtraverse::alloc::PoolCtx` scope).
//! Nothing is process-global.
//!
//! # Example
//!
//! ```
//! use nvtraverse_pool::Pool;
//!
//! let path = std::env::temp_dir().join(format!("doc-pool-{}.pool", std::process::id()));
//! let _ = std::fs::remove_file(&path);
//! let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
//! let p = pool.alloc(64, 8).unwrap();
//! let off = pool.offset_of(p as *const u8);
//! pool.set_root_offset("my-root", off).unwrap();
//! drop(pool);
//!
//! let pool = Pool::builder().path(&path).open().unwrap();
//! assert_eq!(pool.root_offset("my-root"), Some(off));
//! # drop(pool); std::fs::remove_file(&path).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
pub mod gc;
mod mmap;
pub mod optable;
mod seal;

pub use gc::{Marker, TraceFn};
pub use optable::{OpId, OpOutcome, RawOp, OPS_ROOT};

use engine::Engine;
use nvtraverse_ebr::Collector;
use nvtraverse_obs as obs;
use nvtraverse_pmem::{heap, Backend, MmapBackend};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pool file magic: `"NVTRPOOL"` as little-endian bytes.
pub const MAGIC: u64 = u64::from_le_bytes(*b"NVTRPOOL");
/// On-disk format version.
pub const VERSION: u64 = 1;
/// Number of named root slots in the pool header.
pub const MAX_ROOTS: usize = 16;
/// Maximum root name length in bytes.
pub const MAX_ROOT_NAME: usize = 24;
/// Smallest capacity [`PoolBuilder::create`] accepts.
pub const MIN_CAPACITY: u64 = 64 * 1024;
/// Largest capacity [`PoolBuilder::create`] accepts: 1 TiB. An open keeps
/// volatile bitmaps of one bit per 16-byte heap unit, 1/128 of the heap
/// each, so the bound also caps the memory a recovery may need.
pub const MAX_CAPACITY: u64 = 1 << 40;

/// First heap byte: everything below is the pool header page.
pub(crate) const HEAP_START: u64 = 4096;
/// Block sizes (header included) of the non-oversize classes.
pub(crate) const CLASS_SIZES: [u64; 12] = [
    32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];
/// Index of the oversize class (exact-size blocks above 64 KiB).
pub(crate) const OVERSIZE: usize = CLASS_SIZES.len();
pub(crate) const NUM_CLASSES: usize = CLASS_SIZES.len() + 1;
/// Per-block header bytes preceding every payload.
pub(crate) const BLOCK_HEADER: u64 = 16;
/// Alignment of every block and payload.
pub(crate) const BLOCK_ALIGN: u64 = 16;

// Header field offsets (bytes from pool base).
const OFF_MAGIC: u64 = 0;
const OFF_VERSION: u64 = 8;
const OFF_CAPACITY: u64 = 16;
const OFF_PREFERRED_BASE: u64 = 24;
pub(crate) const OFF_FRONTIER: u64 = 32;
const OFF_CLEAN: u64 = 40;
/// The sealed summary's signature, poisoned while the pool is open; it
/// shares `OFF_CLEAN`'s cache line, so the open's one persist covers both.
const OFF_SEAL_SIG: u64 = 48;
/// Offset of the sealed summary record (see the `seal` module).
const OFF_SEAL_AT: u64 = 56;
const OFF_ROOTS: u64 = 256;
const ROOT_SLOT_SIZE: u64 = 32;

// Block header word 0 encoding.
pub(crate) const W0_SIZE_MASK: u64 = (1 << 48) - 1;
pub(crate) const W0_CLASS_SHIFT: u32 = 48;
pub(crate) const W0_CLASS_MASK: u64 = 0xFF;
pub(crate) const W0_ALLOCATED: u64 = 1 << 63;

/// What recovery found: [`PoolBuilder::open`]'s heap walk, plus the
/// mark-sweep GC of the typed open ([`Pool::collect`]) once it ran.
///
/// The block counts describe the heap **after** the recovery GC: a block
/// the sweep reclaimed is counted in `free_blocks` (and `reclaimed_blocks`),
/// not in `live_blocks`, so the report always matches what
/// [`Pool::verify_heap`] would observe right after the open and its
/// collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks allocated after recovery (live data reachable from roots,
    /// plus — when the GC was [skipped](RecoveryReport::gc_ran) — any
    /// unprovable blocks left alone).
    pub live_blocks: usize,
    /// Blocks free after recovery, swept blocks included: the small ones
    /// wait in the engine's free bitmaps until allocations claim them.
    pub free_blocks: usize,
    /// Bytes between the heap start and the persisted frontier.
    pub heap_bytes: u64,
    /// Whether the previous session closed cleanly. Recovery trusts it
    /// only together with a sealed summary (see
    /// [`sealed`](RecoveryReport::sealed)); a clean close that could not
    /// seal is recovered like a crash.
    pub clean_shutdown: bool,
    /// Whether this open read the sealed summary a clean close left
    /// instead of walking the heap. A sealed open runs no heap walk, keeps
    /// no inventory and never collects (`gc_ran` stays false): the close
    /// had drained every retired node and stranded nothing, so the typed
    /// open only attaches. It is false — and the open walks — after a
    /// crash, after a close that left a retired node in another thread's
    /// bag or a magazine in another thread, after a close of a walked
    /// session whose typed open did not collect and recover every root
    /// (its heap may hold crash garbage, its structures crash state),
    /// after a session that removed or repointed a root (its old graph may
    /// be garbage), and when the record does not verify. A block a session
    /// allocates and neither frees nor links is not garbage to a sealed
    /// close: it stays allocated until an open after a crash collects it.
    pub sealed: bool,
    /// Whether the root-driven mark-sweep GC ran for this open: `false`
    /// until the typed open of a walked pool ([`Pool::collect`]) collects.
    /// It runs only when the pool mapped at its preferred base, the open
    /// names **every** root with its tracer, and nothing allocated, freed
    /// or attached since the open; otherwise the typed open fails and
    /// nothing is swept.
    pub gc_ran: bool,
    /// Allocated blocks the sweep proved unreachable from every root and
    /// returned to the free lists. `0` after a clean close (the EBR drain
    /// already returned everything); `> 0` after a crash that stranded
    /// retired or in-flight blocks.
    pub reclaimed_blocks: usize,
    /// Total bytes (block headers included) of the reclaimed blocks.
    pub reclaimed_bytes: u64,
    /// Wall time of the GC mark + sweep phases, in nanoseconds (0 when the
    /// GC did not run). Always exactly
    /// `phases.mark_nanos + phases.sweep_nanos`.
    pub gc_nanos: u64,
    /// Per-phase timing breakdown of the whole recovery pipeline (heap
    /// walk included, which `gc_nanos` is not).
    pub phases: GcPhases,
    /// Blocks each root's mark walk newly reached, as `(root name, count)`
    /// in registry order — which roots own the heap, and which contributed
    /// nothing. Empty when the GC did not run.
    pub root_marks: Vec<(String, u64)>,
    /// Operation descriptors found in the [`optable::OPS_ROOT`] table at
    /// open (slots whose sequence number was ever durably armed). Always
    /// `ops_committed + ops_not_applied + ops_pending`.
    pub ops_descriptors: usize,
    /// Descriptors whose operation's effect provably survives
    /// ([`OpOutcome::Committed`]), counting structure-side resolutions
    /// reported after the open (see [`Pool::resolve_op`]).
    pub ops_committed: usize,
    /// Descriptors classified [`OpOutcome::NotApplied`] or
    /// [`OpOutcome::Superseded`] — no surviving per-op effect to account
    /// for (superseded ops completed before a later op reused their slot).
    pub ops_not_applied: usize,
    /// Descriptors still awaiting their structure's recovered-state lookup
    /// (drops to 0 once every detectable structure re-attaches).
    pub ops_pending: usize,
}

/// Per-phase wall-clock breakdown of the recovery pipeline — the open's
/// heap walk, then the mark and sweep of [`Pool::collect`] — in
/// nanoseconds. Phases that did not run (e.g. mark/sweep when the GC was
/// skipped) report 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPhases {
    /// The one read-only pass over the block headers: validating each and
    /// recording it in the block-start bitmap (allocated) or its class's
    /// free bitmap in the engine (free). On a [sealed](RecoveryReport::sealed)
    /// open, the read of the summary record that replaces it.
    pub heap_walk_nanos: u64,
    /// Tracing every root's reachable graph into the mark bitmap.
    pub mark_nanos: u64,
    /// Clearing and flushing unreachable blocks' headers, and recording
    /// them as free.
    pub sweep_nanos: u64,
    /// Always 0: no rebuild pass runs — free blocks are recorded inside
    /// `heap_walk_nanos` and `sweep_nanos` and claimed by allocations
    /// later. Kept only because the benchmark harness (`nvbench`) reads it.
    pub rebuild_nanos: u64,
}

/// Heap statistics from a full walk ([`Pool::verify_heap`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapReport {
    /// Offsets and payload capacities of allocated blocks, in address order.
    pub live: Vec<(u64, u64)>,
    /// Number of free blocks.
    pub free_blocks: usize,
    /// Current frontier offset.
    pub frontier: u64,
}

/// The raw mapped region: base, length, and word-granular accessors. `Copy`
/// so the allocation engine can take it by value without borrowing `Inner`.
///
/// All word access goes through relaxed atomics: block headers are
/// written by whichever thread allocates or frees the block, while a heap
/// walk ([`Pool::verify_heap`]) may read them concurrently, and mapped
/// memory is ordinary memory as far as the Rust memory model cares.
#[derive(Clone, Copy)]
pub(crate) struct Mem {
    base: usize,
    len: usize,
}

impl Mem {
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn ptr(&self, off: u64) -> *mut u8 {
        debug_assert!((off as usize) < self.len);
        (self.base + off as usize) as *mut u8
    }

    /// The 8-byte word at `off` as an atomic. `off` must be in-bounds and
    /// 8-aligned.
    pub(crate) fn au64(&self, off: u64) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8) && (off as usize) + 8 <= self.len);
        // SAFETY: the mapping outlives every Mem user (Inner unmaps only
        // after the engine and the heap registry are torn down), and the
        // address is valid, aligned shared memory.
        unsafe { AtomicU64::from_ptr(self.ptr(off) as *mut u64) }
    }

    pub(crate) fn load(&self, off: u64) -> u64 {
        self.au64(off).load(Ordering::Relaxed)
    }

    pub(crate) fn store(&self, off: u64, value: u64) {
        self.au64(off).store(value, Ordering::Relaxed)
    }

    /// Flush + fence of the single word at `off`.
    pub(crate) fn persist_u64(&self, off: u64) {
        MmapBackend::flush(self.ptr(off) as *const u8);
        MmapBackend::fence();
    }

    /// Flush + fence of `[off, off + len)`.
    pub(crate) fn persist_range(&self, off: usize, len: usize) {
        MmapBackend::flush_range((self.base + off) as *const u8, len);
        MmapBackend::fence();
    }

    /// `msync` of the pages holding `[off, off + len)`: the range reaches
    /// the file.
    pub(crate) fn sync_range(&self, off: usize, len: usize) {
        const PAGE: usize = 4096;
        let start = off / PAGE * PAGE;
        let end = (off + len).next_multiple_of(PAGE).min(self.len);
        let _ = mmap::sync(self.base + start, end - start);
    }
}

/// Writes an allocated block header (stores only — the engine decides how
/// and when the header reaches persistence; see `engine`). The header is 16
/// bytes at 16-byte alignment, so it never straddles a cache line: a single
/// flush of `off`'s line always covers it.
pub(crate) fn make_allocated(mem: Mem, off: u64, block_size: u64, class: usize, payload: u64) {
    mem.store(
        off,
        block_size | ((class as u64) << W0_CLASS_SHIFT) | W0_ALLOCATED,
    );
    mem.store(off + 8, payload);
}

struct Inner {
    mem: Mem,
    path: PathBuf,
    /// Keeps the file open (and its `flock` held) while mapped.
    _file: mmap::LockedFile,
    rebased: bool,
    /// Set by `finish_open`: a half-built Inner from a failed open must not
    /// stamp the file as cleanly shut down on drop.
    ready: bool,
    /// Whether the heap holds no crash garbage and no structure crash
    /// state: set by a create and a sealed open, and after a walked open by
    /// the typed open once every root collected and recovered
    /// ([`Pool::collect`]). A close seals only with it set. Stored
    /// `Release` after the recovery and loaded `Acquire` by
    /// [`Pool::collect`], so an open that finds it set and only attaches
    /// sees every store the recovery made.
    recovered: AtomicBool,
    /// Set when a root is removed or repointed: the graph it named may now
    /// be garbage only a collection finds, so the close must not seal.
    orphaned: AtomicBool,
    engine: Engine,
    /// Serializes root-registry reads and writes (slot names are multi-word,
    /// so their publication is not atomic). Rare operations only.
    roots: Mutex<()>,
    /// Mutable because [`Pool::collect`] folds its collection into it after
    /// the open. Also serializes collections.
    report: Mutex<RecoveryReport>,
    /// A walked open's allocated-block bitmap, kept for the collection of
    /// the typed open; null when there is nothing to collect (a created,
    /// sealed, rootless or rebased pool) or once the collection, an
    /// allocation, a free or an attach consumed it. Owned: a non-null value
    /// came from `Box::into_raw`.
    inventory: AtomicPtr<gc::Bitmap>,
    /// This pool's telemetry (`nvtraverse-obs`), resolved from the pool's
    /// normalized path — so a reopened pool keeps accumulating into the
    /// same set. `&'static`: the registry leaks one set per distinct pool
    /// file.
    metrics: &'static obs::MetricSet,
    /// Open-time snapshot of the operation-descriptor table plus the
    /// structure-reported resolutions (see [`optable`]). The mutex also
    /// serializes table creation and slot registration.
    ops: Mutex<optable::OpsState>,
    /// The epoch collector of [`Pool::collector`].
    collector: Collector,
}

// SAFETY: the mapping is plain shared memory; mutation happens through the engine's
// lock-free protocol, ordered root-slot publication, or the inventory's single swap.
unsafe impl Send for Inner {}
unsafe impl Sync for Inner {}

/// A handle to an open persistent pool. Clones share the same mapping; the
/// mapping is closed (after an `msync`) when the last handle drops.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("path", &self.inner.path)
            .field("base", &format_args!("{:#x}", self.inner.mem.base()))
            .field("capacity", &self.inner.mem.len())
            .field("rebased", &self.inner.rebased)
            .finish()
    }
}

/// Builder for opening or creating a [`Pool`] — the one constructor
/// surface (`Pool::builder().path(…).capacity(…)` then
/// [`create`](PoolBuilder::create) / [`open`](PoolBuilder::open) /
/// [`open_or_create`](PoolBuilder::open_or_create)).
///
/// * `path` — required for every terminal method.
/// * `capacity` — required by `create` and `open_or_create`; ignored by
///   `open` (the file dictates it).
#[derive(Debug, Clone, Default)]
pub struct PoolBuilder {
    path: Option<PathBuf>,
    capacity: Option<u64>,
}

impl PoolBuilder {
    /// Sets the pool file path (required).
    pub fn path(mut self, path: impl AsRef<Path>) -> Self {
        self.path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Sets the pool capacity in bytes (required by
    /// [`create`](PoolBuilder::create) and
    /// [`open_or_create`](PoolBuilder::open_or_create)).
    pub fn capacity(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    fn want_path(&self) -> io::Result<&Path> {
        self.path.as_deref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "pool builder: path not set")
        })
    }

    fn want_capacity(&self) -> io::Result<u64> {
        self.capacity.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "pool builder: capacity not set (required to create)",
            )
        })
    }

    /// Creates a new pool file of the configured capacity and maps it.
    ///
    /// # Errors
    ///
    /// Fails if `path`/`capacity` are unset, the file already exists, the
    /// capacity is outside [`MIN_CAPACITY`]`..=`[`MAX_CAPACITY`], or
    /// mapping fails.
    pub fn create(self) -> io::Result<Pool> {
        Pool::create_impl(self.want_path()?, self.want_capacity()?)
    }

    /// Opens the existing pool file, verifies its header, and rebuilds the
    /// allocator's volatile state from one read-only heap walk — or, after
    /// a close that sealed, from the sealed summary with no walk
    /// ([`RecoveryReport::sealed`]). The open runs no tracer: it keeps the
    /// walk's allocated-block inventory for the root-driven mark-sweep
    /// recovery GC (see the [`gc`] module) that the typed open of every
    /// root runs ([`Pool::collect`]) before any structure attaches.
    ///
    /// The file is mapped at its recorded preferred base when that range is
    /// still free (embedded absolute pointers stay valid); otherwise it is
    /// mapped elsewhere and the pool is [*rebased*](Pool::is_rebased).
    ///
    /// # Errors
    ///
    /// Fails if `path` is unset or missing, on bad magic/version/capacity,
    /// or heap metadata that does not verify.
    pub fn open(self) -> io::Result<Pool> {
        Pool::open_impl(self.want_path()?)
    }

    /// Opens the pool if its file exists, otherwise creates it with the
    /// configured capacity. Also heals a file whose creation never
    /// completed (no magic persisted): it is unlinked and recreated.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolBuilder::open`]/[`PoolBuilder::create`] failures.
    pub fn open_or_create(self) -> io::Result<Pool> {
        let path = self.want_path()?;
        if path.exists() {
            if unlink_if_never_completed(path)? {
                return Pool::create_impl(path, self.want_capacity()?);
            }
            Pool::open_impl(path)
        } else {
            Pool::create_impl(path, self.want_capacity()?)
        }
    }
}

impl Pool {
    /// Starts building a pool handle — see [`PoolBuilder`].
    pub fn builder() -> PoolBuilder {
        PoolBuilder::default()
    }

    fn create_impl(path: &Path, capacity: u64) -> io::Result<Pool> {
        if capacity < MIN_CAPACITY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("pool capacity {capacity} below minimum {MIN_CAPACITY}"),
            ));
        }
        if capacity > MAX_CAPACITY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("pool capacity {capacity} above maximum {MAX_CAPACITY}"),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        let file = lock_pool_file(file, path)?;
        verify_same_inode(&file, path)?;
        file.set_len(capacity)?;
        // A deterministic per-path hint keeps distinct pools apart while
        // giving the same pool the same base on every run of a program.
        let hint = mmap::base_hint(path);
        let base = mmap::map_shared(&file, capacity as usize, Some(hint), false)?;
        // Register with the msync fallback *before* the first header persist:
        // on targets without a flush instruction, persistence IS the msync of
        // registered regions, and an unregistered header write would not be
        // ordered to stable storage at all.
        MmapBackend::register_region(base, capacity as usize);

        let mem = Mem {
            base,
            len: capacity as usize,
        };
        let metrics = obs::for_pool(&gc::normalize_path(path));
        let inner = Inner {
            mem,
            path: path.to_path_buf(),
            _file: file,
            rebased: false,
            ready: false,
            recovered: AtomicBool::new(true),
            orphaned: AtomicBool::new(false),
            engine: Engine::new(metrics),
            roots: Mutex::new(()),
            report: Mutex::new(RecoveryReport {
                heap_bytes: 0,
                clean_shutdown: true,
                ..Default::default()
            }),
            inventory: AtomicPtr::default(),
            metrics,
            ops: Mutex::new(optable::OpsState::default()),
            collector: Collector::new(),
        };
        // Initialize the header. The magic is persisted last, so a crash
        // during create leaves a file without it, which `open` rejects
        // instead of trusting a half-written header.
        mem.store(OFF_VERSION, VERSION);
        mem.store(OFF_CAPACITY, capacity);
        mem.store(OFF_PREFERRED_BASE, base as u64);
        mem.store(OFF_FRONTIER, HEAP_START);
        mem.store(OFF_CLEAN, 0);
        for slot in 0..MAX_ROOTS as u64 {
            for w in 0..ROOT_SLOT_SIZE / 8 {
                mem.store(OFF_ROOTS + slot * ROOT_SLOT_SIZE + w * 8, 0);
            }
        }
        mem.persist_range(0, HEAP_START as usize);
        mem.store(OFF_MAGIC, MAGIC);
        mem.persist_u64(OFF_MAGIC);
        obs::ring::record(obs::ring::EventKind::Create, &pool_label(path), capacity, 0);
        Ok(Pool::finish_open(inner))
    }

    fn open_impl(path: &Path) -> io::Result<Pool> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file = lock_pool_file(file, path)?;
        let file_len = file.metadata()?.len();
        if file_len < MIN_CAPACITY {
            return Err(bad_pool(format!("file too small ({file_len} bytes)")));
        }
        // Probe the header from a throwaway mapping to learn the base.
        let probe = mmap::map_shared(&file, HEAP_START as usize, None, false)?;
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let (magic, version, capacity, preferred, clean, signature) = unsafe {
            let at = |off: u64| ((probe + off as usize) as *const u64).read_volatile();
            (
                at(OFF_MAGIC),
                at(OFF_VERSION),
                at(OFF_CAPACITY),
                at(OFF_PREFERRED_BASE),
                at(OFF_CLEAN),
                at(OFF_SEAL_SIG),
            )
        };
        mmap::unmap(probe, HEAP_START as usize);
        if magic != MAGIC {
            return Err(bad_pool(format!("bad magic {magic:#x}")));
        }
        if version != VERSION {
            return Err(bad_pool(format!("unsupported version {version}")));
        }
        if capacity != file_len {
            return Err(bad_pool(format!(
                "header capacity {capacity} != file length {file_len}"
            )));
        }
        if capacity > MAX_CAPACITY {
            return Err(bad_pool(format!("capacity {capacity} above maximum")));
        }

        // Try the recorded base first so absolute pointers stay valid.
        let (base, rebased) =
            match mmap::map_shared(&file, capacity as usize, Some(preferred as usize), true) {
                Ok(b) => (b, false),
                Err(_) => (mmap::map_shared(&file, capacity as usize, None, false)?, true),
            };
        // Before any persist (see create): the msync fallback only reaches
        // registered regions.
        MmapBackend::register_region(base, capacity as usize);

        let mem = Mem {
            base,
            len: capacity as usize,
        };
        let metrics = obs::for_pool(&gc::normalize_path(path));
        let mut inner = Inner {
            mem,
            path: path.to_path_buf(),
            _file: file,
            rebased,
            ready: false,
            recovered: AtomicBool::new(false),
            orphaned: AtomicBool::new(false),
            engine: Engine::new(metrics),
            roots: Mutex::new(()),
            report: Mutex::new(RecoveryReport::default()),
            inventory: AtomicPtr::default(),
            metrics,
            ops: Mutex::new(optable::OpsState::default()),
            collector: Collector::new(),
        };
        let (mut report, allocated) = {
            // Recovery traffic (the oversize links) is this pool's GC
            // spending.
            let _t = obs::attribute_to(Some(metrics));
            let _p = obs::phase(obs::Phase::Gc);
            let sealed = clean == seal::CLEAN_SEALED && signature == seal::SIGNATURE;
            match sealed.then(|| inner.restore_allocator()).flatten() {
                Some(report) => (report, None),
                None => inner.recover_allocator(clean != 0).map(|(report, walked)| (report, Some(walked)))?,
            }
        };
        // Snapshot the operation-descriptor table (if present) while the
        // heap is still quiescent: `Pool::op_outcome` answers the crash
        // question against this open's state, not whatever the session
        // mutates afterwards. (Offset-addressed, so valid even rebased.)
        let ops_state = (0..MAX_ROOTS)
            .find_map(|slot| {
                let (name, off) = inner.read_root_slot(slot);
                (name.as_deref() == Some(optable::OPS_ROOT.as_bytes()) && off != 0).then_some(off)
            })
            .map(|off| optable::snapshot_ops(mem, off, &mut report))
            .unwrap_or_default();
        *inner.ops.get_mut().unwrap_or_else(|e| e.into_inner()) = ops_state;
        // A sealed open has nothing to recover. A walked one keeps its
        // inventory for the typed open's collection; rebased mappings and
        // rootless pools can never be collected.
        match allocated {
            None => *inner.recovered.get_mut() = true,
            Some(allocated) if !rebased && !inner.roots().is_empty() => {
                *inner.inventory.get_mut() = Box::into_raw(Box::new(allocated));
            }
            Some(_) => {}
        }
        // Mark the pool dirty until a clean close. The preferred base is
        // only re-recorded for a NON-rebased mapping: on a rebased one,
        // absolute pointers inside the pool still encode the original
        // base, and persisting the temporary base would make the next
        // open look non-rebased while those pointers stay dangling.
        if !rebased {
            mem.store(OFF_PREFERRED_BASE, base as u64);
            mem.persist_u64(OFF_PREFERRED_BASE);
        }
        // Dirty until a clean close, and the signature poisoned until a
        // close seals again: one line, one persist.
        mem.store(OFF_CLEAN, 0);
        mem.store(OFF_SEAL_SIG, seal::SIGNATURE ^ seal::POISON);
        mem.persist_u64(OFF_CLEAN);
        obs::ring::record(
            obs::ring::EventKind::Open,
            &pool_label(path),
            report.live_blocks as u64,
            u64::from(report.sealed),
        );
        *inner.report.get_mut().unwrap_or_else(|e| e.into_inner()) = report;
        Ok(Pool::finish_open(inner))
    }

    fn finish_open(mut inner: Inner) -> Pool {
        inner.ready = true;
        // (The MmapBackend region was registered before the first header
        // persist, in create/open — ordering the msync fallback needs.)
        let inner = Arc::new(inner);
        // The engine address is stable from here on (behind the Arc):
        // announce it so exiting threads can drain magazines back to it.
        inner.engine.register(inner.mem);
        // Register with the foreign-heap registry so `free`/EBR return pool
        // pointers here. The ctx pointer is non-owning: `Inner::drop`
        // unregisters before the memory goes away.
        heap::register_region(
            inner.mem.base(),
            inner.mem.len(),
            Arc::as_ptr(&inner) as usize,
            Inner::dealloc_shim,
        );
        Pool { inner }
    }

    // ---- geometry --------------------------------------------------------

    /// Base address of the mapping.
    pub fn base(&self) -> usize {
        self.inner.mem.base()
    }

    /// Pool capacity in bytes (header included).
    pub fn capacity(&self) -> u64 {
        self.inner.mem.len() as u64
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// `true` when the pool could not be mapped at its recorded base, so
    /// absolute pointers stored inside it are invalid. Structures with
    /// embedded pointers must refuse to attach; offset-based access
    /// ([`Pool::at`]) remains correct.
    pub fn is_rebased(&self) -> bool {
        self.inner.rebased
    }

    /// What recovery found when this pool was opened — including, once
    /// [`Pool::collect`] collected, that collection's reclaim.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.inner
            .report
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// This pool's telemetry set (`nvtraverse-obs`): per-phase flush/fence
    /// counts, allocator-tier counters, GC counters, and latency
    /// histograms. The set is keyed by the pool's normalized path, so it
    /// survives close/reopen cycles and accumulates across them; measure
    /// regions with [`nvtraverse_obs::MetricSet::snapshot`] deltas.
    pub fn metrics(&self) -> &'static obs::MetricSet {
        self.inner.metrics
    }

    /// The epoch collector this pool's structures retire removed nodes
    /// into. The last pool handle drains and closes it before the unmap, so
    /// no node is ever reclaimed into a pool that is gone.
    pub fn collector(&self) -> &Collector {
        &self.inner.collector
    }

    /// Whether `ptr` points into this pool's mapping.
    pub fn contains(&self, ptr: *const u8) -> bool {
        let a = ptr as usize;
        a >= self.inner.mem.base() && a < self.inner.mem.base() + self.inner.mem.len()
    }

    /// Translates a pointer into this pool to its stable offset.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is outside the pool.
    pub fn offset_of(&self, ptr: *const u8) -> u64 {
        assert!(self.contains(ptr), "pointer not in pool");
        (ptr as usize - self.inner.mem.base()) as u64
    }

    /// Translates a stable offset to a pointer in the current mapping.
    ///
    /// # Panics
    ///
    /// Panics if `off` is outside the pool.
    pub fn at(&self, off: u64) -> *mut u8 {
        assert!(
            (off as usize) < self.inner.mem.len(),
            "offset {off} out of pool"
        );
        (self.inner.mem.base() + off as usize) as *mut u8
    }

    // ---- allocation ------------------------------------------------------

    /// Allocates `size` bytes with `align`ment from the pool.
    ///
    /// Returns `None` when the pool is exhausted or `align` exceeds the
    /// pool's 16-byte block alignment. The block's header is written before
    /// the pointer is returned; its flush and ordering fence ride on the
    /// caller's own pre-publication flush + fence (see the crate docs), so a crash can never corrupt the heap or
    /// lose a durably published block — an in-flight block stays allocated
    /// until the next open's recovery GC proves it unreachable and sweeps
    /// it back to the free lists.
    pub fn alloc(&self, size: usize, align: usize) -> Option<*mut u8> {
        self.inner.alloc(size, align)
    }

    /// Returns `ptr`'s block to the allocator.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`Pool::alloc`] on this pool,
    /// must not be reachable by any thread, and must not be freed twice.
    pub unsafe fn dealloc(&self, ptr: *mut u8) {
        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
        unsafe { self.inner.dealloc(ptr) }
    }

    /// Payload capacity in bytes of the block holding `ptr`.
    pub fn usable_size(&self, ptr: *const u8) -> u64 {
        self.inner.block_info(ptr as *mut u8).0
    }

    // ---- roots -----------------------------------------------------------

    /// Durably associates `name` (≤ [`MAX_ROOT_NAME`] bytes) with `off`.
    ///
    /// Overwrites the previous value of an existing name; repointing a
    /// root may leave its old graph as garbage only a collection finds,
    /// so this session's close then writes no sealed summary. For a new name the
    /// offset is persisted before the name, so a torn update can only
    /// produce an unnamed slot, never a named slot pointing at garbage.
    ///
    /// # Errors
    ///
    /// Fails when the name is empty/too long or all root slots are taken.
    pub fn set_root_offset(&self, name: &str, off: u64) -> io::Result<()> {
        let bytes = name.as_bytes();
        if bytes.is_empty() || bytes.len() > MAX_ROOT_NAME || bytes.contains(&0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("root name must be 1..={MAX_ROOT_NAME} bytes with no NUL"),
            ));
        }
        let inner = &*self.inner;
        let _guard = inner.roots.lock().unwrap_or_else(|e| e.into_inner());
        let mut free_slot = None;
        for slot in 0..MAX_ROOTS {
            let (slot_name, _) = inner.read_root_slot(slot);
            if slot_name.as_deref() == Some(bytes) {
                if inner.mem.load(root_off_field(slot)) != off {
                    inner.orphaned.store(true, Ordering::Relaxed);
                }
                inner.mem.store(root_off_field(slot), off);
                inner.mem.persist_u64(root_off_field(slot));
                return Ok(());
            }
            if slot_name.is_none() && free_slot.is_none() {
                free_slot = Some(slot);
            }
        }
        let slot = free_slot.ok_or_else(|| {
            io::Error::other(
                format!("all {MAX_ROOTS} root slots in use"),
            )
        })?;
        // Offset first, then the name that makes the slot visible.
        inner.mem.store(root_off_field(slot), off);
        inner.mem.persist_u64(root_off_field(slot));
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        unsafe {
            let mut name_buf = [0u8; MAX_ROOT_NAME];
            name_buf[..bytes.len()].copy_from_slice(bytes);
            let dst = inner.mem.ptr(OFF_ROOTS + slot as u64 * ROOT_SLOT_SIZE);
            std::ptr::copy_nonoverlapping(name_buf.as_ptr(), dst, MAX_ROOT_NAME);
        }
        inner.mem.persist_range(
            (OFF_ROOTS + slot as u64 * ROOT_SLOT_SIZE) as usize,
            ROOT_SLOT_SIZE as usize,
        );
        Ok(())
    }

    /// Looks up the raw offset registered under `name`.
    ///
    /// (The typed counterpart — `pool.root::<S>(name)` returning an
    /// attached, recovered structure handle — lives in the `nvtraverse`
    /// crate's `TypedRoots` extension trait.)
    pub fn root_offset(&self, name: &str) -> Option<u64> {
        let inner = &*self.inner;
        let _guard = inner.roots.lock().unwrap_or_else(|e| e.into_inner());
        for slot in 0..MAX_ROOTS {
            let (slot_name, off) = inner.read_root_slot(slot);
            if slot_name.as_deref() == Some(name.as_bytes()) {
                return Some(off);
            }
        }
        None
    }

    /// All registered `(name, offset)` pairs.
    pub fn roots(&self) -> Vec<(String, u64)> {
        self.inner.roots()
    }

    /// The checked attach-side root lookup every `PoolAttach`
    /// implementation shares: refuses a [rebased](Pool::is_rebased) pool
    /// (embedded absolute pointers would be invalid) and a torn slot from a
    /// crashed `set_root_offset` (offset 0), then resolves the root as a
    /// typed pointer in the current mapping. Like an allocation or a free,
    /// it ends a walked open's chance to collect: an attached structure may
    /// retire what its recovery unlinks, and a sweep would free it again.
    ///
    /// Allocation routing is the attaching structure's job (it carries
    /// this pool's [`Pool::alloc_target`] in its `PoolCtx`).
    pub fn attach_root_ptr<T>(&self, name: &str) -> Option<*mut T> {
        self.inner.end_inventory();
        if self.is_rebased() {
            return None;
        }
        let off = self.root_offset(name)?;
        if off == 0 {
            return None;
        }
        Some(self.at(off) as *mut T)
    }

    /// Registers `ptr` as root `name` after asserting it lies inside this
    /// pool — the create-side counterpart of [`Pool::attach_root_ptr`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pool::set_root_offset`].
    ///
    /// # Panics
    ///
    /// Panics when `ptr` was not allocated from this pool: the structure
    /// was built outside this pool's allocation scope, and
    /// registering it would persist a root no reopen could ever resolve.
    pub fn set_root_ptr_checked<T>(&self, name: &str, ptr: *const T) -> io::Result<()> {
        assert!(
            self.contains(ptr as *const u8),
            "root not allocated from this pool — was it built outside this pool's scope?"
        );
        self.set_root_offset(name, self.offset_of(ptr as *const u8))
    }

    // ---- allocation routing ---------------------------------------------

    /// This pool's allocation entry point, for per-structure allocation
    /// scopes (`nvtraverse::alloc::PoolCtx`): the pair a thread passes to
    /// [`nvtraverse_pmem::heap::swap_scoped_target`] so its node
    /// allocations are served from this pool — any number of pools can be
    /// targets concurrently, each through its own structures.
    ///
    /// The target is **non-owning**: it is valid only while some `Pool`
    /// handle to this mapping is alive. The `PooledHandle` lifecycle
    /// guarantees that (the handle owns a pool clone, and drops its
    /// structure — which enters the target no more — before it); hand-rolled
    /// users must keep a handle alive themselves.
    pub fn alloc_target(&self) -> heap::AllocTarget {
        heap::AllocTarget {
            ctx: Arc::as_ptr(&self.inner) as usize,
            alloc: Inner::alloc_shim,
        }
    }

    // ---- recovery GC ----------------------------------------------------

    /// Runs this open's recovery around `recover`, the caller's attach and
    /// recovery of every root — the typed open (`open_roots`/`root::<S>()`
    /// in the `nvtraverse` crate) is the one caller, and every `(root name,
    /// tracer)` of `tracers` is one root of its schema; the [`OPS_ROOT`]
    /// table brings its own tracer.
    ///
    /// After a created or [sealed](RecoveryReport::sealed) open, and once
    /// an earlier call recovered this open, there is nothing to recover:
    /// no tracer runs and this is `recover()`. After a walked open, it
    /// first runs the open's one root-driven mark-sweep recovery GC (the
    /// [`gc`] module) with `tracers` — its reclaim is folded into
    /// [`Pool::recovery_report`] — then `recover()`, and only when that
    /// succeeds is the pool recovered, so its close may seal.
    ///
    /// # Errors
    ///
    /// A walked open fails, sweeping nothing and with `recover` not called,
    /// when the pool is [rebased](Pool::is_rebased), a root on media is not
    /// in `tracers` or one in `tracers` is not on media (reachability is
    /// then not provable), the heap changed since the open (an allocation,
    /// free or attach consumed its inventory: a block the session itself
    /// allocated is reachable from no root), or a tracer
    /// [refuses](Marker::refuse) its root. Otherwise the error is
    /// `recover`'s, and the pool stays unrecovered.
    ///
    /// # Safety
    ///
    /// Each tracer must trace the root it names as the type that created
    /// it (same concrete node layout) — the contract
    /// `PoolAttach::attach_to_pool` states for the attaching type. A
    /// mismatch misreads pool memory and may sweep live blocks. The heap
    /// must be quiescent for the call.
    pub unsafe fn collect<R>(
        &self,
        tracers: &mut [(&str, TraceFn<'_>)],
        recover: impl FnOnce() -> io::Result<R>,
    ) -> io::Result<R> {
        let inner = &*self.inner;
        if inner.recovered.load(Ordering::Acquire) {
            return recover();
        }
        inner.collect(tracers)?;
        let recovered = recover()?;
        inner.recovered.store(true, Ordering::Release);
        Ok(recovered)
    }

    /// Whether `off` is the payload start of a currently **allocated**
    /// block of this pool (full header validation against the walk
    /// invariants). Attaches check a root offset with it before they
    /// dereference anything the file holds.
    pub fn is_allocated_payload(&self, off: u64) -> bool {
        let inner = &*self.inner;
        if off < HEAP_START + BLOCK_HEADER || !off.is_multiple_of(BLOCK_ALIGN) {
            return false;
        }
        let block = off - BLOCK_HEADER;
        let frontier = inner.engine.frontier();
        if block >= frontier {
            return false;
        }
        matches!(
            check_block_header(inner.mem.load(block), block, frontier),
            Ok((_, _, true))
        )
    }

    // ---- maintenance -----------------------------------------------------

    /// Synchronously writes the mapping back to the file (`msync(MS_SYNC)`).
    ///
    /// # Errors
    ///
    /// Propagates the `msync` failure.
    pub fn sync(&self) -> io::Result<()> {
        mmap::sync(self.inner.mem.base(), self.inner.mem.len())
    }

    /// Walks the whole heap, checking every block-header invariant.
    ///
    /// The walk is exact while the pool is quiescent (no concurrent
    /// alloc/free — the situation of every recovery and every test); during
    /// concurrent mutation it still never faults, but allocated/free counts
    /// are transient snapshots.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn verify_heap(&self) -> Result<HeapReport, String> {
        let frontier = self.inner.engine.frontier();
        let mut report = HeapReport {
            frontier,
            ..Default::default()
        };
        walk_heap(self.inner.mem, frontier, |off, size, _, allocated| {
            if allocated {
                report.live.push((off, size - BLOCK_HEADER));
            } else {
                report.free_blocks += 1;
            }
        })?;
        Ok(report)
    }

    /// Offsets of currently allocated blocks (address order) — the pool's
    /// *live set*, as reconstructed purely from persistent metadata.
    // nvt-lint: allow(unused-pub): the leak and sweep tests' live set
    pub fn live_offsets(&self) -> Vec<u64> {
        self.verify_heap()
            .map(|r| r.live.iter().map(|&(o, _)| o).collect())
            .unwrap_or_default()
    }
}

impl Inner {
    fn read_root_slot(&self, slot: usize) -> (Option<Vec<u8>>, u64) {
        let name_off = OFF_ROOTS + slot as u64 * ROOT_SLOT_SIZE;
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let mut name = [0u8; MAX_ROOT_NAME];
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.mem.ptr(name_off) as *const u8,
                name.as_mut_ptr(),
                MAX_ROOT_NAME,
            );
        }
        if name[0] == 0 {
            return (None, 0);
        }
        let len = name.iter().position(|&b| b == 0).unwrap_or(MAX_ROOT_NAME);
        let off = self.mem.load(root_off_field(slot));
        (Some(name[..len].to_vec()), off)
    }

    // ---- allocator entry points ------------------------------------------

    fn alloc(&self, size: usize, align: usize) -> Option<*mut u8> {
        self.end_inventory();
        if align > BLOCK_ALIGN as usize {
            // Alignment is caller-controlled through the generic alloc_node
            // path; an unsupported value must fail the allocation, not the
            // process.
            return None;
        }
        let payload = (size.max(1) as u64).next_multiple_of(BLOCK_ALIGN);
        let want = BLOCK_HEADER + payload;
        // Classes are the powers of two 32..=65536, so the class index is
        // ceil(log2(want)) - 5: branch-free instead of a scan.
        let bits = 64 - (want - 1).leading_zeros() as usize;
        let class = bits.saturating_sub(5).min(OVERSIZE);
        debug_assert_eq!(
            class,
            CLASS_SIZES.iter().position(|&c| c >= want).unwrap_or(OVERSIZE)
        );
        // Allocator traffic — engine counters and any header flushes — is
        // recorded against the owning pool under the Alloc phase, whatever
        // the caller's attribution was.
        let _t = obs::attribute_to(Some(self.metrics));
        let _p = obs::phase(obs::Phase::Alloc);
        let off = self.engine.alloc(self.mem, class, want, payload)?;
        Some(self.mem.ptr(off + BLOCK_HEADER))
    }

    /// (payload capacity, class) of the allocated block holding `ptr`.
    fn block_info(&self, ptr: *mut u8) -> (u64, usize) {
        let addr = ptr as usize;
        assert!(
            addr >= self.mem.base() + (HEAP_START + BLOCK_HEADER) as usize
                && addr < self.mem.base() + self.mem.len(),
            "pointer {addr:#x} not in pool heap"
        );
        let off = (addr - self.mem.base()) as u64 - BLOCK_HEADER;
        let w0 = self.mem.load(off);
        assert!(
            w0 & W0_ALLOCATED != 0,
            "pool pointer {addr:#x} is not an allocated block (double free?)"
        );
        let size = w0 & W0_SIZE_MASK;
        let class = ((w0 >> W0_CLASS_SHIFT) & W0_CLASS_MASK) as usize;
        (size - BLOCK_HEADER, class)
    }

    // SAFETY: see the trait contract — `ptr` came from this heap's `alloc` and is freed at most once.
    unsafe fn dealloc(&self, ptr: *mut u8) {
        self.end_inventory();
        let (_, class) = self.block_info(ptr);
        let off = (ptr as usize - self.mem.base()) as u64 - BLOCK_HEADER;
        let _t = obs::attribute_to(Some(self.metrics));
        let _p = obs::phase(obs::Phase::Alloc);
        self.engine.dealloc(self.mem, off, class);
    }

    /// Rebuilds allocator state from persistent block headers (nothing
    /// volatile is trusted) in **one** read-only pass that touches each
    /// header once — validate it, then record an allocated block in the
    /// returned block-start bitmap or a free one in its class's free bitmap
    /// in the engine. The walk writes nothing, so an image it rejects keeps
    /// every byte.
    fn recover_allocator(&mut self, clean: bool) -> io::Result<(RecoveryReport, gc::Bitmap)> {
        let (mem, frontier) = (self.mem, self.mem.load(OFF_FRONTIER));
        if frontier < HEAP_START || frontier > mem.len() as u64 {
            return Err(bad_pool(format!("frontier {frontier:#x} out of range")));
        }
        let mut report = RecoveryReport {
            heap_bytes: frontier - HEAP_START,
            clean_shutdown: clean,
            ..Default::default()
        };
        let engine = &mut self.engine;
        engine.reset(frontier);
        // nvt-lint: allow(wall-clock): recovery/GC telemetry only; never reaches durable state
        let walk_start = Instant::now();
        let mut allocated = gc::Bitmap::new(frontier);
        // Linked only once the image is accepted: a rejected open writes
        // nothing.
        let mut oversize = Vec::new();
        walk_heap(mem, frontier, |off, _, class, is_allocated| {
            if is_allocated {
                allocated.set(off);
                report.live_blocks += 1;
            } else {
                if class == OVERSIZE {
                    oversize.push(off);
                } else {
                    engine.recover_free(off, class);
                }
                report.free_blocks += 1;
            }
        })
        .map_err(|e| bad_pool(format!("corrupt {e}")))?;
        report.phases.heap_walk_nanos = walk_start.elapsed().as_nanos() as u64;
        let blocks = (report.live_blocks + report.free_blocks) as u64;
        engine.finish_recovery(mem, &oversize, blocks);
        Ok((report, allocated))
    }

    /// Fills the engine from the sealed record a clean close left, with no
    /// heap walk — or `None`, having written nothing, when the record does
    /// not verify against the header's frontier. The report and the engine
    /// are what a walk of the same heap would produce.
    fn restore_allocator(&mut self) -> Option<RecoveryReport> {
        let (mem, frontier) = (self.mem, self.mem.load(OFF_FRONTIER));
        if frontier < HEAP_START || frontier > mem.len() as u64 {
            return None;
        }
        // nvt-lint: allow(wall-clock): recovery/GC telemetry only; never reaches durable state
        let start = Instant::now();
        let record = seal::read_record(mem, OFF_SEAL_AT, frontier)?;
        self.engine.restore(mem, frontier, &record);
        let mut report = RecoveryReport {
            live_blocks: record.live as usize,
            free_blocks: record.free_blocks() as usize,
            heap_bytes: frontier - HEAP_START,
            clean_shutdown: true,
            sealed: true,
            ..Default::default()
        };
        report.phases.heap_walk_nanos = start.elapsed().as_nanos() as u64;
        Some(report)
    }

    /// The walked open's one collection (see [`Pool::collect`]): every
    /// root traced over the open's inventory, then the sweep. Fails with
    /// nothing swept when it cannot prove reachability.
    fn collect(&self, tracers: &mut [(&str, TraceFn<'_>)]) -> io::Result<()> {
        let mut report = self.report.lock().unwrap_or_else(|e| e.into_inner());
        if self.rebased {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "pool was rebased; absolute pointers for its roots are invalid",
            ));
        }
        let roots = self.schema_roots(tracers)?;
        let allocated = self.take_inventory().ok_or_else(|| {
            io::Error::other("the heap changed since the open: an allocation, free or attach came before recovery")
        })?;
        let _t = obs::attribute_to(Some(self.metrics));
        let _p = obs::phase(obs::Phase::Gc);
        let (swept, bytes) =
            gc::collect(self.mem, &allocated, &roots, tracers, &self.engine, self.metrics, &mut report)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "a root is not the layout its tracer reads"))?;
        obs::ring::record(obs::ring::EventKind::Gc, &pool_label(&self.path), swept as u64, bytes);
        Ok(())
    }

    /// Takes the open's block inventory, leaving none.
    fn take_inventory(&self) -> Option<Box<gc::Bitmap>> {
        let p = self.inventory.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: a non-null inventory came from `Box::into_raw` at open,
        // and the swap hands it to exactly one caller.
        (!p.is_null()).then(|| unsafe { Box::from_raw(p) })
    }

    /// Consumes the open's inventory, if still held: the heap is about to
    /// differ from the one the walk saw — a fresh allocation is reachable
    /// from no root, a free may recycle a block, an attached structure may
    /// retire one — so no collection may run on it any more. Once consumed
    /// this costs one load, `Relaxed` because it only gates the swap, which
    /// does the `Acquire`.
    fn end_inventory(&self) {
        if !self.inventory.load(Ordering::Relaxed).is_null() {
            drop(self.take_inventory());
        }
    }

    /// Every root with the tracer that traces it (see [`gc::Root`]) — or
    /// the reason the collection must not run: a root on media that no
    /// tracer names (its blocks' reachability cannot be established, and
    /// sweeping them could destroy live data), or a tracer whose root is
    /// not on media. The reserved ops-table root has a built-in tracer (a
    /// single block, no outgoing pointers): detectable pools must not lose
    /// the GC because no structure tracer mentions it.
    fn schema_roots(&self, tracers: &[(&str, TraceFn<'_>)]) -> io::Result<Vec<gc::Root>> {
        let roots = self.roots();
        if let Some((name, _)) = tracers.iter().find(|(name, _)| !roots.iter().any(|(r, off)| r == name && *off != 0)) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("pool has no root named {name:?} to recover"),
            ));
        }
        roots
            .into_iter()
            .map(|(name, off)| {
                let tracer = tracers.iter().position(|(n, _)| *n == name);
                if tracer.is_none() && (name != optable::OPS_ROOT || off == 0) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("root {name:?} is on media but the open's schema does not trace it: its blocks cannot be proven unreachable"),
                    ));
                }
                Ok((name, off, tracer))
            })
            .collect()
    }

    /// All named `(name, offset)` root slots.
    fn roots(&self) -> Vec<(String, u64)> {
        let _guard = self.roots.lock().unwrap_or_else(|e| e.into_inner());
        (0..MAX_ROOTS)
            .filter_map(|slot| {
                let (name, off) = self.read_root_slot(slot);
                Some((String::from_utf8_lossy(&name?).into_owned(), off))
            })
            .collect()
    }

    // ---- shims for the pmem foreign-heap registry ------------------------

    // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
    unsafe fn alloc_shim(ctx: usize, size: usize, align: usize) -> *mut u8 {
        let inner = unsafe { &*(ctx as *const Inner) };
        inner.alloc(size, align).unwrap_or(std::ptr::null_mut())
    }

    // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
    unsafe fn dealloc_shim(ctx: usize, ptr: *mut u8, _size: usize, _align: usize) {
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let inner = unsafe { &*(ctx as *const Inner) };
        unsafe { inner.dealloc(ptr) }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Reclaim retired nodes while mapped, then close the collector: what
        // other threads still hold is left for the next open's GC.
        self.collector.drain();
        self.collector.close();
        let stranded = self.collector.unreclaimed();
        drop(self.take_inventory());
        // This thread's cached frees join the class bitmaps. Then stop
        // routing new work here before the mapping goes away: the engine
        // unregisters first so no exiting thread can drain magazines into
        // a dying engine.
        self.engine.drain_own(self.mem);
        self.engine.unregister();
        heap::unregister_region(self.mem.base());
        // Clean-close marker only for a pool that actually opened: a
        // half-built Inner from a rejected open must not mutate the file,
        // or it would overwrite the crash diagnostic it just refused.
        if self.ready {
            // A heap an open walked may hold crash garbage until a
            // collection proves it has none, and structures a crash left to
            // recover until each has: a seal would hide both.
            let sealable = *self.recovered.get_mut()
                && !*self.orphaned.get_mut()
                && stranded == 0
                && self.engine.magazines_held() == 0;
            let sealed = self.close_cleanly(sealable);
            obs::ring::record(obs::ring::EventKind::Close, &pool_label(&self.path), u64::from(sealed), 0);
        }
        MmapBackend::unregister_region(self.mem.base());
        mmap::unmap(self.mem.base(), self.mem.len());
    }
}

impl Inner {
    /// The clean close's writes, in `nvdata.c`'s order (see the `seal`
    /// module): the heap state reaches the file, then — when `sealable`
    /// (no unproven garbage, nothing stranded, every magazine drained) and
    /// the record fits above the frontier — the summary record and its
    /// CRC, then the signature, then the clean flag, each persisted before
    /// the next. Returns whether the close sealed.
    fn close_cleanly(&self, sealable: bool) -> bool {
        let mem = self.mem;
        let _ = mmap::sync(mem.base(), mem.len());
        seal::step("state");
        let sealed = sealable && self.engine.seal(mem, OFF_SEAL_AT);
        if sealed {
            mem.store(OFF_SEAL_SIG, seal::SIGNATURE);
            mem.persist_u64(OFF_SEAL_SIG);
            seal::step("signature");
        }
        mem.store(OFF_CLEAN, if sealed { seal::CLEAN_SEALED } else { 1 });
        mem.persist_u64(OFF_CLEAN);
        seal::step("clean");
        mem.sync_range(0, HEAP_START as usize);
        sealed
    }
}

/// The one pass over the block headers in `[HEAP_START, frontier)`: checks
/// every header against the heap invariants and calls `block(offset, size,
/// class, allocated)` for each, in address order. Every consumer of the
/// heap's block inventory — open-time recovery and [`Pool::verify_heap`]
/// — is this loop, so a block that passed a weaker check somewhere can
/// never poison a free list and later be handed out at its class size,
/// overlapping a neighbour.
///
/// # Errors
///
/// Describes the first violated invariant (nothing past it is visited).
fn walk_heap(
    mem: Mem,
    frontier: u64,
    mut block: impl FnMut(u64, u64, usize, bool),
) -> Result<(), String> {
    let mut off = HEAP_START;
    while off < frontier {
        let w0 = mem.load(off);
        let (size, class, allocated) =
            check_block_header(w0, off, frontier).map_err(|e| format!("{e} (w0={w0:#x})"))?;
        block(off, size, class, allocated);
        off += size;
    }
    Ok(())
}

/// Decodes and validates one block header word against the heap
/// invariants: size bounds, alignment, class range, class/size consistency,
/// and frontier containment (so a walk ends exactly at the frontier).
///
/// Returns `(block_size, class, allocated)`.
fn check_block_header(w0: u64, off: u64, frontier: u64) -> Result<(u64, usize, bool), String> {
    let size = w0 & W0_SIZE_MASK;
    let class = ((w0 >> W0_CLASS_SHIFT) & W0_CLASS_MASK) as usize;
    if size < BLOCK_HEADER + BLOCK_ALIGN || !size.is_multiple_of(BLOCK_ALIGN) {
        return Err(format!("block at {off:#x}: bad size {size}"));
    }
    if class >= NUM_CLASSES {
        return Err(format!("block at {off:#x}: bad class {class}"));
    }
    if class < OVERSIZE && CLASS_SIZES[class] != size {
        return Err(format!(
            "block at {off:#x}: class {class} does not match size {size}"
        ));
    }
    if class == OVERSIZE && size <= *CLASS_SIZES.last().unwrap() {
        return Err(format!("block at {off:#x}: oversize class but size {size}"));
    }
    if off + size > frontier {
        return Err(format!(
            "block at {off:#x}: size {size} crosses frontier {frontier:#x}"
        ));
    }
    Ok((size, class, w0 & W0_ALLOCATED != 0))
}

fn root_off_field(slot: usize) -> u64 {
    OFF_ROOTS + slot as u64 * ROOT_SLOT_SIZE + MAX_ROOT_NAME as u64
}

/// Locks the pool file exclusively, translating contention into a clear
/// "in use" error. Single-writer is what keeps two allocators from racing
/// over the same mapped pages (the lock is released when the returned
/// file drops).
fn lock_pool_file(file: File, path: &Path) -> io::Result<mmap::LockedFile> {
    mmap::LockedFile::lock(file).map_err(|e| {
        if e.kind() == io::ErrorKind::WouldBlock {
            io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "pool {} is already open in this or another process",
                    path.display()
                ),
            )
        } else {
            e
        }
    })
}

/// If `path` is a pool file whose creation crashed before the final magic
/// persist (first 8 bytes exactly zero), unlinks it and returns `true`.
///
/// Runs entirely on a `flock`ed descriptor: a file another process holds
/// open (mid-create or in use) fails the lock and is left alone.
fn unlink_if_never_completed(path: &Path) -> io::Result<bool> {
    use std::io::Read;
    let Ok(f) = mmap::LockedFile::lock(OpenOptions::new().read(true).write(true).open(path)?) else {
        return Ok(false); // someone owns it; let Pool::open report that
    };
    // The lock was acquired on whatever inode we opened; if the path has
    // been replaced meanwhile (another healer won and re-created the pool),
    // unlinking by path would delete *their* live pool.
    if verify_same_inode(&f, path).is_err() {
        return Ok(false);
    }
    let mut magic = [0u8; 8];
    let incomplete = match (&*f).read_exact(&mut magic) {
        Ok(()) => u64::from_le_bytes(magic) == 0,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => true,
        Err(e) => return Err(e),
    };
    if incomplete {
        // Still under the lock — remove the never-completed file.
        std::fs::remove_file(path)?;
    }
    Ok(incomplete)
}

/// Fails if `path` no longer names the inode behind `file` — i.e. a
/// concurrent `open_or_create` healed (unlinked) the file between our
/// `open` and `flock`. Losing that race must abort the create rather than
/// continue on an unlinked inode nobody can ever open again.
fn verify_same_inode(file: &File, path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        let ours = file.metadata()?;
        let on_disk = std::fs::metadata(path)?;
        if ours.dev() != on_disk.dev() || ours.ino() != on_disk.ino() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} was replaced during creation", path.display()),
            ));
        }
    }
    #[cfg(not(unix))]
    let _ = (file, path);
    Ok(())
}

/// Short ring-event label for a pool: its file name (the ring stores 24
/// label bytes, so the directory part would only be truncated away).
fn pool_label(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn bad_pool(msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("not a valid pool: {msg}"),
    )
}

#[cfg(test)]
mod tests;
