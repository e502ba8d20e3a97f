//! Flush/fence backends: what the persistence instructions actually *do*.
//!
//! The paper's persistency model (§2) has exactly two explicit instructions:
//! a *flush* that initiates write-back of a cache line, and a *fence* that
//! waits until every line flushed by this thread since its last fence has
//! reached persistent memory. The [`Backend`] trait captures that pair; the
//! durability policies in the `nvtraverse` crate decide *where* to call them.

use crate::sim;

/// Size in bytes of one cache line, the granularity of hardware flushes.
pub const CACHE_LINE: usize = 64;

mod pending {
    use std::cell::Cell;

    thread_local! {
        static PENDING: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    pub(super) fn note_flush() {
        PENDING.with(|p| p.set(p.get() + 1));
    }

    #[inline]
    pub(super) fn note_fence() {
        PENDING.with(|p| p.set(0));
    }

    #[inline]
    pub(super) fn any() -> bool {
        PENDING.with(|p| p.get() != 0)
    }
}

/// Whether the calling thread has issued a flush (through any non-[`Noop`]
/// backend) since its last fence.
///
/// A fence's only effect in the persistency model is to drain the calling
/// thread's previously initiated write-backs; with none pending it is a
/// no-op, so durability policies consult this to **elide** fences (the
/// pre-CAS fence after a fresh fence, the closing fence of a read-only
/// operation). Purely thread-local — flushes by other threads are their
/// fences' problem, exactly as on hardware.
#[inline]
pub fn flushes_pending() -> bool {
    pending::any()
}

/// A flush/fence implementation.
///
/// Implementations are zero-sized types used as type parameters; all methods
/// are static so the compiler monomorphizes and (for [`Noop`]) fully erases
/// them.
///
/// The paper evaluates on two machines: a Cascade Lake Xeon using
/// `clwb` + `sfence` ([`Clwb`]) and an older AMD machine where `clwb` is
/// unavailable and a synchronized `clflush` is used instead
/// ([`ClflushSync`]).
pub trait Backend: Send + Sync + 'static {
    /// `true` when this backend routes through the crash simulator.
    ///
    /// Cells consult this constant so simulator bookkeeping compiles away
    /// entirely for hardware backends.
    const SIM: bool = false;

    /// Initiates write-back of the cache line containing `addr`.
    ///
    /// The data is only guaranteed persistent after a subsequent
    /// [`Backend::fence`] by the same thread.
    fn flush(addr: *const u8);

    /// Waits until all lines flushed by this thread since its previous fence
    /// are persistent.
    fn fence();

    /// Flushes every cache line overlapping `[addr, addr + len)`.
    ///
    /// Used to persist a freshly initialized node in one call; deduplicates
    /// by line so a multi-field node on a single line costs one flush.
    fn flush_range(addr: *const u8, len: usize) {
        if len == 0 {
            return;
        }
        let start = addr as usize & !(CACHE_LINE - 1);
        let end = addr as usize + len - 1;
        let mut line = start;
        loop {
            Self::flush(line as *const u8);
            if line >= end & !(CACHE_LINE - 1) {
                break;
            }
            line += CACHE_LINE;
        }
    }
}

/// A backend whose flush and fence are no-ops.
///
/// Instantiating a durability policy with `Noop` yields the original,
/// non-durable algorithm — the "orig" series in every figure of the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Backend for Noop {
    #[inline(always)]
    fn flush(_addr: *const u8) {}
    #[inline(always)]
    fn fence() {}
    #[inline(always)]
    fn flush_range(_addr: *const u8, _len: usize) {}
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNKNOWN: u8 = 0;
    const CLWB: u8 = 1;
    const CLFLUSHOPT: u8 = 2;
    const CLFLUSH: u8 = 3;

    static BEST: AtomicU8 = AtomicU8::new(UNKNOWN);

    fn detect() -> u8 {
        // CPUID leaf 7, sub-leaf 0: EBX bit 24 = CLWB, bit 23 = CLFLUSHOPT.
        let ebx = if std::arch::x86_64::__cpuid(0).eax >= 7 {
            std::arch::x86_64::__cpuid_count(7, 0).ebx
        } else {
            0
        };
        let best = if ebx & (1 << 24) != 0 {
            CLWB
        } else if ebx & (1 << 23) != 0 {
            CLFLUSHOPT
        } else {
            CLFLUSH
        };
        BEST.store(best, Ordering::Relaxed);
        best
    }

    /// Issues the best available write-back instruction for `addr`'s line.
    #[inline]
    pub fn flush_writeback(addr: *const u8) {
        let mut best = BEST.load(Ordering::Relaxed);
        if best == UNKNOWN {
            best = detect();
        }
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            match best {
                CLWB => {
                    std::arch::asm!(
                        "clwb [{0}]",
                        in(reg) addr,
                        options(nostack, preserves_flags)
                    );
                }
                CLFLUSHOPT => {
                    std::arch::asm!(
                        "clflushopt [{0}]",
                        in(reg) addr,
                        options(nostack, preserves_flags)
                    );
                }
                _ => std::arch::x86_64::_mm_clflush(addr),
            }
        }
    }

    /// Issues `clflush`, which is ordered (synchronized) on its own.
    #[inline]
    pub fn flush_sync(addr: *const u8) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe { std::arch::x86_64::_mm_clflush(addr) }
    }

    /// Issues `sfence`.
    #[inline]
    pub fn sfence() {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe { std::arch::x86_64::_mm_sfence() }
    }
}

/// Hardware flush via `clwb` (falling back to `clflushopt`, then `clflush`)
/// and fence via `sfence`.
///
/// This is the configuration of the paper's NVRAM machine (Cascade Lake
/// supports `clwb`; §5.1). On non-x86-64 targets the flush is a no-op and the
/// fence is a sequentially consistent memory fence, preserving correctness of
/// the concurrent algorithm while losing persistence (there is no NVRAM to
/// persist to on such targets anyway).
#[derive(Debug, Clone, Copy, Default)]
pub struct Clwb;

impl Backend for Clwb {
    #[inline]
    fn flush(addr: *const u8) {
        pending::note_flush();
        #[cfg(target_arch = "x86_64")]
        x86::flush_writeback(addr);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    #[inline]
    fn fence() {
        pending::note_fence();
        #[cfg(target_arch = "x86_64")]
        x86::sfence();
        #[cfg(not(target_arch = "x86_64"))]
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// Hardware flush via the synchronized `clflush` instruction.
///
/// This matches the paper's second (AMD) machine, where `clwb` is not
/// supported "so we used the synchronized clflush instruction instead"
/// (§5.1). `clflush` both writes back and *invalidates* the line, which is
/// why the paper observes extra cache misses from flushing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClflushSync;

impl Backend for ClflushSync {
    #[inline]
    fn flush(addr: *const u8) {
        pending::note_flush();
        #[cfg(target_arch = "x86_64")]
        x86::flush_sync(addr);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    #[inline]
    fn fence() {
        pending::note_fence();
        #[cfg(target_arch = "x86_64")]
        x86::sfence();
        #[cfg(not(target_arch = "x86_64"))]
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// Wraps another backend and counts every flush and fence into the
/// thread's attributed `nvtraverse-obs` metric set (installed with
/// `nvtraverse_obs::attribute_to`), tagged with the thread's current phase.
/// Attribution is per thread, so a measurement sees exactly its own
/// thread's instructions whatever else the process is running.
///
/// The ablation benchmark `abl1` uses `Count<Noop>` to report the exact
/// number of persistence instructions each durability policy issues per
/// operation — the quantity the paper's entire design minimizes.
///
/// Do not instantiate `Count<MmapBackend>`: [`MmapBackend`] already records
/// into the attributed metric set itself, so wrapping it would double-count
/// every flush and fence there.
///
/// # Example
///
/// ```
/// use nvtraverse_obs::{self as obs, MetricSet};
/// use nvtraverse_pmem::{Backend, Count, Noop};
///
/// let set: &'static MetricSet = Box::leak(Box::new(MetricSet::new(1)));
/// {
///     let _scope = obs::attribute_to(Some(set));
///     Count::<Noop>::flush(std::ptr::null());
///     Count::<Noop>::fence();
/// }
/// let counted = set.snapshot();
/// assert_eq!((counted.total_flushes(), counted.total_fences()), (1, 1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Count<B>(std::marker::PhantomData<fn() -> B>);

impl<B: Backend> Backend for Count<B> {
    const SIM: bool = B::SIM;

    #[inline]
    fn flush(addr: *const u8) {
        // Count models a real backend's persistence stream even over `Noop`,
        // so it notes pending flushes itself; a non-Noop inner backend
        // noting again is harmless (only zero/non-zero is consulted).
        pending::note_flush();
        nvtraverse_obs::on_flush();
        B::flush(addr);
    }

    #[inline]
    fn fence() {
        pending::note_fence();
        nvtraverse_obs::on_fence();
        B::fence();
    }
}

/// Flush/fence for a **memory-mapped pool file** (the `nvtraverse-pool`
/// heap): `clwb` + `sfence` over the mapped region, with an `msync` fallback.
///
/// On a DAX mapping of real NVRAM, `clwb`/`sfence` *is* the persistence
/// protocol, identical to [`Clwb`]. On a page-cache-backed mapping of a
/// regular file (every CI machine), written pages already survive process
/// death — the kernel owns them — so `clwb`/`sfence` preserves the paper's
/// cost profile while process-crash durability comes for free. Surviving
/// *power* failure on such a mapping additionally requires `msync`
/// ([`MmapBackend::sync_all_regions`], or `Pool::sync` for one pool).
/// Non-x86-64 targets have no flush instruction to lean on, so there every
/// fence `msync`s every mapped region.
///
/// Pool mappings are announced via [`MmapBackend::register_region`]; the
/// `nvtraverse-pool` crate does this when a pool is opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct MmapBackend;

mod mmap_sync {
    use std::sync::RwLock;

    pub(super) static REGIONS: RwLock<Vec<(usize, usize)>> = RwLock::new(Vec::new());

    #[cfg(unix)]
    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
    unsafe extern "C" {
        fn msync(addr: *mut std::ffi::c_void, len: usize, flags: std::ffi::c_int)
            -> std::ffi::c_int;
    }
    #[cfg(unix)]
    const MS_SYNC: std::ffi::c_int = 4;

    /// Synchronously writes every registered mapping back to its file.
    pub(super) fn msync_all() {
        let regions = REGIONS.read().unwrap_or_else(|e| e.into_inner());
        for &(base, len) in regions.iter() {
            #[cfg(unix)]
            // SAFETY: the region was registered as a live mapping and stays
            // mapped until unregistered.
            unsafe {
                msync(base as *mut std::ffi::c_void, len, MS_SYNC);
            }
            #[cfg(not(unix))]
            let _ = (base, len);
        }
    }
}

impl MmapBackend {
    /// Announces a live mapping so the `msync` fallback can reach it.
    /// Idempotent per base address.
    pub fn register_region(base: usize, len: usize) {
        let mut regions = mmap_sync::REGIONS
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if !regions.iter().any(|&(b, _)| b == base) {
            regions.push((base, len));
        }
    }

    /// Removes a mapping registered with [`MmapBackend::register_region`].
    pub fn unregister_region(base: usize) {
        let mut regions = mmap_sync::REGIONS
            .write()
            .unwrap_or_else(|e| e.into_inner());
        regions.retain(|&(b, _)| b != base);
    }

    /// Forces an `msync` of every registered region now (e.g. before a
    /// planned shutdown).
    pub fn sync_all_regions() {
        mmap_sync::msync_all();
    }
}

impl Backend for MmapBackend {
    /// Also records the flush into the thread's attributed `nvtraverse-obs`
    /// metric set (per-pool, per-phase); read it as snapshot deltas.
    #[inline]
    fn flush(addr: *const u8) {
        pending::note_flush();
        nvtraverse_obs::on_flush();
        #[cfg(target_arch = "x86_64")]
        x86::flush_writeback(addr);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// See [`MmapBackend::flush`] on where the fence is recorded.
    #[inline]
    fn fence() {
        pending::note_fence();
        nvtraverse_obs::on_fence();
        #[cfg(target_arch = "x86_64")]
        x86::sfence();
        #[cfg(not(target_arch = "x86_64"))]
        {
            std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
            mmap_sync::msync_all();
        }
    }
}

/// The crash-simulating backend.
///
/// All [`crate::PCell`] accesses, flushes, and fences are routed through the
/// thread's active [`sim::SimHandle`] (established with
/// [`sim::SimHandle::enter`]), which maintains a persisted copy of every
/// cell, buffers flushes per thread, publishes them at fences, and can
/// *crash*: roll every cell back to its persisted copy, poisoning cells that
/// were never persisted.
///
/// # Panics
///
/// Any simulated access panics with [`crate::CrashSignal`] once a crash has
/// been armed and reached — this is how the crash-point tests interrupt an
/// operation mid-flight. Accessing a `Sim`-backed cell without an active
/// handle also panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim;

impl Backend for Sim {
    const SIM: bool = true;

    #[inline]
    fn flush(addr: *const u8) {
        pending::note_flush();
        sim::on_flush(addr as usize);
    }

    #[inline]
    fn fence() {
        pending::note_fence();
        sim::on_fence();
    }

    /// In the simulator, flushes operate on 8-byte cells rather than cache
    /// lines, which is strictly more adversarial (no free neighbours).
    fn flush_range(addr: *const u8, len: usize) {
        let start = addr as usize & !7;
        let mut a = start;
        while a < addr as usize + len {
            pending::note_flush();
            sim::on_flush(a);
            a += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_backend_is_callable() {
        let x = 1u64;
        Noop::flush(&x as *const u64 as *const u8);
        Noop::fence();
        Noop::flush_range(&x as *const u64 as *const u8, 8);
    }

    #[test]
    fn hardware_flush_and_fence_execute() {
        // Smoke test: the real instructions must not fault on valid memory.
        let data = vec![0u8; 256];
        for b in 0..4 {
            match b {
                0 => {
                    Clwb::flush(data.as_ptr());
                    Clwb::fence();
                }
                1 => {
                    ClflushSync::flush(data.as_ptr());
                    ClflushSync::fence();
                }
                2 => Clwb::flush_range(data.as_ptr(), 256),
                _ => ClflushSync::flush_range(data.as_ptr(), 1),
            }
        }
    }

    #[test]
    fn flush_range_covers_every_line_once() {
        // A 128-byte unaligned range spans exactly 3 lines; Count records 3.
        let data = vec![0u8; 256];
        let unaligned = unsafe { data.as_ptr().add(32) };
        let counts = crate::counted(|| Count::<Noop>::flush_range(unaligned, 128));
        assert_eq!(counts, (3, 0));
    }

    #[test]
    fn count_records_flushes_and_fences() {
        let x = 0u64;
        let counts = crate::counted(|| {
            Count::<Noop>::flush(&x as *const u64 as *const u8);
            Count::<Noop>::flush(&x as *const u64 as *const u8);
            Count::<Noop>::fence();
        });
        assert_eq!(counts, (2, 1));
    }
}
