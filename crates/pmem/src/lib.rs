//! Persistent-memory substrate for the NVTraverse reproduction.
//!
//! The NVTraverse paper (PLDI 2020) targets machines with byte-addressable
//! non-volatile memory (Intel Optane DC): caches are volatile, main memory is
//! persistent, and a program persists a value explicitly by executing a
//! *flush* (`clwb`/`clflushopt`/`clflush`) followed by a *fence* (`sfence`).
//! A crash loses everything that has not reached persistent memory.
//!
//! This crate provides that model several times over, unified behind the
//! [`Backend`] trait so data structures are written once and instantiated
//! with any backend:
//!
//! | Backend | flush / fence | Use |
//! |---------|---------------|-----|
//! | [`Clwb`] | `clwb` (or `clflushopt`/`clflush`) / `sfence` | the paper's NVRAM machine; true cost profile on DRAM |
//! | [`ClflushSync`] | synchronized `clflush` / `sfence` | the paper's AMD machine (§5.1) |
//! | [`MmapBackend`] | `clwb` / `sfence` over a mapped pool file, optional `msync` fallback | structures living in a `nvtraverse-pool` persistent heap |
//! | [`Sim`] | routed through the crash simulator | crash-point tests |
//! | [`Count<B>`] | delegates to `B`, counting | the flushes/op ablation |
//! | [`Noop`] | nothing | the "orig" (volatile) series |
//!
//! * **Hardware backends** ([`Clwb`], [`ClflushSync`]) issue the real x86-64
//!   instructions (falling back gracefully on other architectures). They give
//!   benchmarks the true cost profile of flushes and fences even when the
//!   physical memory behind them is DRAM.
//! * **A simulated backend** ([`Sim`]) models the paper's §2 persistency
//!   semantics exactly: every shared 64-bit cell ([`PCell`]) keeps a separate
//!   *persisted* copy, flushes are buffered per thread, a fence publishes the
//!   buffered flushes, and a *crash* rolls every cell back to its persisted
//!   copy — poisoning cells that were never persisted. This is the engine of
//!   the crash tests that validate durable linearizability.
//! * **The mapped-pool backend** ([`MmapBackend`]) persists a memory-mapped
//!   pool file — `clwb`/`sfence` is exactly right on a DAX NVRAM mapping,
//!   and [`MmapBackend::set_msync_on_fence`] adds `msync` for page-cache
//!   mappings that must survive power loss, not just process death.
//!
//! The [`heap`] module is the allocation seam between all of this and the
//! `nvtraverse-pool` crate: a registry of foreign heaps (address ranges plus
//! dealloc entry points) and an installable process-wide allocator, so node
//! allocation and EBR reclamation transparently target a persistent pool —
//! the `libvmmalloc` model of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use nvtraverse_pmem::{Backend, Clwb, PCell};
//!
//! let cell: PCell<u64, Clwb> = PCell::new(7);
//! cell.store(8);
//! Clwb::flush(cell.addr());
//! Clwb::fence(); // 8 is now guaranteed persistent on real NVRAM
//! assert_eq!(cell.load(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
mod backend;
mod cell;
pub mod heap;
pub mod sim;
mod word;

pub use backend::{
    flushes_pending, Backend, ClflushSync, Clwb, Count, MmapBackend, Noop, Sim, CACHE_LINE,
};
pub use cell::PCell;
pub use sim::{CrashSignal, SimHandle, SimObserver, WriteKind, POISON};
pub use word::Word;

/// Runs `f` with this thread's [`Count`] traffic attributed to a private
/// metric set and returns the exact `(flushes, fences)` it issued, whatever
/// the other tests of the binary are doing meanwhile.
#[cfg(test)]
pub(crate) fn counted(f: impl FnOnce()) -> (u64, u64) {
    let set: &'static nvtraverse_obs::MetricSet =
        Box::leak(Box::new(nvtraverse_obs::MetricSet::new(1)));
    {
        let _scope = nvtraverse_obs::attribute_to(Some(set));
        f();
    }
    let counts = set.snapshot();
    (counts.total_flushes(), counts.total_fences())
}
