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
//! volatile [`Marker`] bitmap sized from the walk's frontier, and the sweep
//! phase hands every allocated-but-unmarked block back to the allocation
//! engine's free lists. The sweep clears and flushes the swept headers, so
//! the reclamation itself is crash-consistent: re-killing the process at
//! any point mid-GC leaves each garbage block either still allocated (the
//! next open sweeps it again) or durably free — never torn.
//!
//! The GC is conservative about what it cannot prove: it runs only when the
//! pool is mapped at its preferred base (tracers chase embedded absolute
//! pointers, exactly like `recover()`) and **every** registered root has a
//! tracer. One unknown root disables the whole collection — reachability of
//! its blocks cannot be established, and sweeping them would destroy live
//! data. See `ARCHITECTURE.md` § "Recovery GC" for the per-structure
//! reachability contract.

use crate::{check_block_header, Mem, BLOCK_ALIGN, BLOCK_HEADER, HEAP_START, W0_SIZE_MASK};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// The mark phase's working state: a volatile bitmap with one bit per
/// 16-byte heap unit (a block is marked at its header's unit), plus the
/// geometry needed to validate every pointer a tracer hands in before it
/// is trusted.
///
/// Handed to [`TraceFn`]s by the sweep driver; user code never constructs
/// one.
pub struct Marker<'a> {
    mem: Mem,
    frontier: u64,
    bits: &'a mut [u64],
    marked: usize,
}

impl<'a> std::fmt::Debug for Marker<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Marker")
            .field("frontier", &self.frontier)
            .field("marked", &self.marked)
            .finish()
    }
}

impl<'a> Marker<'a> {
    pub(crate) fn new(mem: Mem, frontier: u64, bits: &'a mut [u64]) -> Self {
        Marker {
            mem,
            frontier,
            bits,
            marked: 0,
        }
    }

    /// The single validity check behind [`Marker::mark`] and [`Marker::at`]:
    /// `off` (a heap offset) is the payload start of a valid **allocated**
    /// block — in bounds, 16-aligned, below the frontier, with a header
    /// passing the full walk invariants. Returns the block's header offset.
    fn valid_payload(&self, off: u64) -> Option<u64> {
        if off < HEAP_START + BLOCK_HEADER || !off.is_multiple_of(BLOCK_ALIGN) {
            return None;
        }
        let block = off - BLOCK_HEADER;
        if block >= self.frontier {
            return None;
        }
        match check_block_header(self.mem.load(block), block, self.frontier) {
            Ok((_, _, true)) => Some(block),
            _ => None,
        }
    }

    /// [`Marker::valid_payload`] for a pointer: out-of-pool pointers are
    /// `None`, and only a header that passes the full walk invariants — and
    /// is allocated — names a block; anything else is a stray pointer
    /// landing mid-block.
    fn block_of(&self, ptr: *const u8) -> Option<u64> {
        let addr = ptr as usize;
        let base = self.mem.base();
        if addr < base || addr >= base + self.mem.len() {
            return None;
        }
        self.valid_payload((addr - base) as u64)
    }

    /// Payload capacity in bytes of the allocated block whose payload
    /// starts at `ptr` (same validation as [`Marker::mark`]) — the bound a
    /// tracer needs before reading a variable-length root block such as
    /// the hash table's bucket table.
    pub fn capacity_of(&self, ptr: *const u8) -> Option<u64> {
        let block = self.block_of(ptr)?;
        Some((self.mem.load(block) & W0_SIZE_MASK) - BLOCK_HEADER)
    }

    /// Marks the block whose **payload** starts at `ptr` as reachable.
    ///
    /// Returns `true` when the block was newly marked — tracers use this to
    /// cut off shared suffixes and cycles. Returns `false` (marking
    /// nothing) when the block was already marked, or when `ptr` is not the
    /// payload start of a valid allocated block of this pool: out-of-pool
    /// and malformed pointers are ignored rather than trusted, so a tracer
    /// following a stale auxiliary word cannot corrupt the mark state.
    pub fn mark(&mut self, ptr: *const u8) -> bool {
        let Some(block) = self.block_of(ptr) else {
            return false;
        };
        let idx = ((block - HEAP_START) / BLOCK_ALIGN) as usize;
        let (word, bit) = (idx / 64, idx % 64);
        if self.bits[word] & (1 << bit) != 0 {
            return false;
        }
        self.bits[word] |= 1 << bit;
        self.marked += 1;
        true
    }

    /// Whether the block starting at heap offset `block` is marked. Used by
    /// the sweep phase.
    pub(crate) fn is_marked(&self, block: u64) -> bool {
        let idx = ((block - HEAP_START) / BLOCK_ALIGN) as usize;
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of distinct blocks marked so far.
    pub fn marked_blocks(&self) -> usize {
        self.marked
    }

    /// Translates a stable heap offset to a pointer in the current mapping,
    /// for structures whose persistent root stores offsets rather than
    /// pointers (the hash table's bucket table). Returns `Some` only when
    /// `off` is the payload start of a **valid allocated block** (same
    /// validation as [`Marker::mark`]), so a tracer reading a torn or stale
    /// offset word gets `None` instead of a dereferenceable garbage
    /// pointer.
    pub fn at(&self, off: u64) -> Option<*mut u8> {
        self.valid_payload(off).map(|_| self.mem.ptr(off))
    }

    /// Payload offset and capacity of every **allocated** block, in address
    /// order — the heap inventory a tracer needs when reachability is not
    /// encoded in link words at all. The SOFT structures use this: their
    /// links are volatile (rebuilt by recovery from per-node validity bits),
    /// so their tracers *enumerate* candidate nodes and keep the ones whose
    /// persistent header proves membership, rather than chasing pointers.
    pub fn allocated_payloads(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut off = HEAP_START;
        while off < self.frontier {
            // Headers were validated by the open-time walk that produced
            // this marker's frontier; a failure here is memory corruption
            // and stopping the enumeration is the conservative answer.
            let Ok((size, _class, allocated)) =
                check_block_header(self.mem.load(off), off, self.frontier)
            else {
                break;
            };
            if allocated {
                out.push((off + BLOCK_HEADER, size - BLOCK_HEADER));
            }
            off += size;
        }
        out
    }
}
