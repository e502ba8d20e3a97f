//! # NVTraverse: durably linearizable traversal data structures
//!
//! This crate implements the primary contribution of *"NVTraverse: In NVRAM
//! Data Structures, the Destination is More Important than the Journey"*
//! (Friedman, Ben-David, Wei, Blelloch, Petrank — PLDI 2020): an **automatic
//! transformation** that takes a lock-free *traversal data structure* and
//! injects flush and fence instructions so that the result is provably
//! **durably linearizable** on non-volatile main memory.
//!
//! A traversal data structure (paper §3) is a node-based core-tree structure
//! whose every operation decomposes into three methods, called in order:
//!
//! 1. `findEntry` — pick an entry point into the core tree,
//! 2. `traverse`  — walk down making only local decisions, reading but never
//!    writing shared memory, and return a suffix of the path,
//! 3. `critical`  — perform the modifications (or compute the return value),
//!    possibly asking to restart.
//!
//! The transformation (paper §4, Algorithm 2) persists **nothing during the
//! traversal**. Between `traverse` and `critical` it runs two injected steps:
//! `ensureReachable` (flush the pointer that connects the returned window to
//! the rest of the tree) and `makePersistent` (flush the fields the traversal
//! read in the returned nodes, then fence). Inside `critical`, Protocol 2
//! applies: flush after every shared read and every write/CAS, fence before
//! every write/CAS and before returning.
//!
//! ## How this crate encodes the transformation
//!
//! The paper's flush placement is captured once, in the
//! [`Durability`] policy trait, and the data structures (in
//! `nvtraverse-structures`) are written against that instrumented memory
//! interface. Instantiating the same structure with a different policy yields
//! the different systems compared in the paper's evaluation:
//!
//! | Policy | Paper series | Behaviour |
//! |--------|--------------|-----------|
//! | [`Volatile`] | "orig" | no persistence at all |
//! | [`NvTraverse<B>`] | "Traverse" | the paper's transformation |
//! | [`Izraelevitz<B>`] | "Izraelevitz" | flush+fence after *every* shared access |
//! | [`LinkPersist<B>`] | "Log Free" | David et al.'s link-and-persist (dirty-bit tagged links) |
//! | [`Soft<B>`] | SOFT (related work) | Zuriel et al.'s minimal flushing: volatile links, one validity flush per update |
//!
//! where `B` is a flush/fence [`Backend`](nvtraverse_pmem::Backend) — real
//! `clwb`/`sfence`, a counting shim, the crash simulator, or
//! [`MmapBackend`](nvtraverse_pmem::MmapBackend) over a persistent pool
//! file.
//!
//! ## Living in pool files — plural
//!
//! With the `nvtraverse-pool` crate, a structure's nodes live in a
//! memory-mapped pool file and survive process death — and pools are
//! **first-class**: open as many as you like in one process. Build a pool
//! with `Pool::builder()`, then use the typed-root API ([`TypedRoots`]):
//! `pool.create_root::<S>("name")` to create a named structure inside it,
//! `pool.open_roots::<(A, B)>(["a", "b"])` — or `pool.root::<S>("name")`
//! for a pool of one root — to attach + recover them after a restart; each
//! returns [`PooledHandle`]s. Every structure carries its own allocation
//! context ([`alloc::PoolCtx`]), so [`alloc::alloc_node`]/[`alloc::free`]
//! route each structure's node memory to *its* pool with no process-global
//! state (where the paper's `libvmmalloc`, §5.1, takes over one heap for
//! the whole process). See `examples/pool_restart.rs`,
//! `tests/crash_process.rs`, and `nvtraverse_structures::sharded` for the
//! N-pools-at-once form.
//!
//! ## Example
//!
//! ```
//! use nvtraverse::policy::{Durability, NvTraverse, Volatile};
//! use nvtraverse_obs::{self as obs, MetricSet};
//! use nvtraverse_pmem::{Count, Noop, PCell};
//!
//! // A shared cell read in a critical section: NVTraverse flushes it...
//! let cell: PCell<u64, Count<Noop>> = PCell::new(5);
//! let counts: &'static MetricSet = Box::leak(Box::new(MetricSet::new(1)));
//! {
//!     let _scope = obs::attribute_to(Some(counts));
//!     let _ = NvTraverse::<Count<Noop>>::c_load(&cell);
//! }
//! assert_eq!(counts.snapshot().total_flushes(), 1);
//!
//! // ...while the original algorithm does not.
//! let cell: PCell<u64, Noop> = PCell::new(5);
//! let _ = Volatile::c_load(&cell);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod detect;
pub mod marked;
pub mod model;
pub mod ops;
pub mod policy;
pub mod set;

pub use alloc::PoolCtx;
pub use detect::{ArmHandle, DetectablePool, OpError, OpToken};
pub use marked::MarkedPtr;
pub use pool::{OpId, OpOutcome};
pub use ops::{persist_window, run_operation, Critical, PersistSet, TraversalOps};
pub use policy::{Durability, Izraelevitz, LinkPersist, NvTraverse, Soft, Volatile};
pub use set::{DurableSet, PoolAttach, PoolTrace, PooledHandle, Schema, TypedRoots};

/// What [`counted`] saw.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Counts {
    pub(crate) flushes: u64,
    pub(crate) fences: u64,
}

/// Runs `f` with this thread's `Count`-backend traffic attributed to a
/// private metric set and returns the exact counts it issued, whatever the
/// other tests of the binary are doing meanwhile.
#[cfg(test)]
pub(crate) fn counted<R>(f: impl FnOnce() -> R) -> (Counts, R) {
    use nvtraverse_obs as obs;
    let set: &'static obs::MetricSet = Box::leak(Box::new(obs::MetricSet::new(1)));
    let r = {
        let _scope = obs::attribute_to(Some(set));
        f()
    };
    let s = set.snapshot();
    (Counts { flushes: s.total_flushes(), fences: s.total_fences() }, r)
}

/// Convenience re-export of the persistence substrate.
pub use nvtraverse_pmem as pmem;

/// Convenience re-export of the persistent pool (file-backed heap).
pub use nvtraverse_pool as pool;

/// Convenience re-export of the epoch-based reclamation crate.
pub use nvtraverse_ebr as ebr;
