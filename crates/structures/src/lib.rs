//! Traversal-form lock-free data structures for the NVTraverse reproduction.
//!
//! Every structure evaluated in the paper's §5, written once against the
//! [`Durability`](nvtraverse::Durability) policy interface so the same code
//! instantiates as the original algorithm, the NVTraverse version, the
//! Izraelevitz et al. baseline, or the link-and-persist ("Log Free")
//! competitor:
//!
//! * [`list::HarrisList`] — Harris's sorted linked list (the running example,
//!   paper §2.1/§4.4),
//! * [`hash::HashMapDs`] — fixed-size bucket array of Harris lists (David et
//!   al. style),
//! * [`ellen_bst::EllenBst`] — Ellen et al.'s non-blocking external BST,
//! * [`nm_bst::NmBst`] — Natarajan & Mittal's edge-marking external BST,
//! * [`skiplist::SkipList`] — a lock-free skiplist whose bottom level is the
//!   persistent core tree and whose towers are volatile and rebuilt on
//!   recovery (paper §3, Property 2 discussion),
//! * [`queue::MsQueue`] / [`stack::TreiberStack`] — queue and stack in
//!   traversal form (paper §3: "traversal data structures capture not just
//!   set data structures, but also queues, stacks, …").
//!
//! The list, [`soft_list::SoftList`] (the buckets of
//! [`soft_hash::SoftHash`]) and the skiplist's bottom level are one Harris
//! sorted chain, written once in the crate's `chain` module: the window
//! walk, `deleteMarkedNodes`, recovery's marked-run disconnect and the
//! quiescent and teardown walks. Each keeps only its discipline: node
//! layout, the linearizing write, Protocol-1 fields and recovery policy.
//!
//! Every structure implements
//! [`PoolAttach`](nvtraverse::PoolAttach): it can be created inside a
//! `nvtraverse-pool` file, found again by name after a restart, and
//! recovered — see `nvtraverse::PooledHandle` for the packaged lifecycle
//! and the repository's `ARCHITECTURE.md` for the per-structure recovery
//! table (what each root encodes and what is rebuilt volatile-side).
//! Each also implements [`PoolTrace`](nvtraverse::PoolTrace) — the one
//! read of its graph on an open: the reachability walk the recovery
//! mark-sweep GC of `root::<S>` uses to sweep crash-stranded blocks, whose
//! findings are the plan the structure's recovery then runs; the table's
//! *reachability contract* column documents exactly which links each walk
//! follows. Every walk over next-pointer chains — the tracers of the list,
//! hash table, skiplist bottom level, queue and stack — is the crate's one
//! `walk_chains` wavefront helper, which overlaps the cache misses of
//! independent chains (a single chain is its one-lane case).
//!
//! # Example
//!
//! ```
//! use nvtraverse::policy::NvTraverse;
//! use nvtraverse::DurableSet;
//! use nvtraverse_pmem::Clwb;
//! use nvtraverse_structures::list::HarrisList;
//!
//! // A durably linearizable sorted list on real flush instructions.
//! let list: HarrisList<u64, u64, NvTraverse<Clwb>> = HarrisList::new();
//! assert!(list.insert(3, 30));
//! assert!(list.contains(3));
//! assert!(list.remove(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// The one chain walker of recovery: advances a set of **independent**
/// singly-linked chains in lock-step, as one wavefront. Each round visits
/// every live lane once — `visit(lane, node)` handles the lane's current
/// node and returns its successor (null ends the lane) — and issues a
/// software prefetch for that successor before moving to the next lane, so
/// by the time the round comes back the line is (being) fetched. A chain
/// walk is a dependent pointer chase, one cache/TLB miss in flight at a
/// time; the chains of a bucket table do not depend on each other, so their
/// misses can overlap, and that memory-level parallelism is the whole gain:
/// the mark phase and the recovery scan of a 2^18-node, 64-bucket table drop
/// from ≈ 145 ns to ≈ 10 ns a hop on DRAM (see `ARCHITECTURE.md` § "Recovery
/// GC"). The lanes in flight are simply the chains given.
///
/// # Safety
///
/// Every non-null element of `lanes`, and every non-null pointer `visit`
/// returns, must be a chain node `visit` may be called on (valid under
/// recovery's quiescence or an EBR guard the caller holds). The prefetch
/// itself never faults, whatever the address.
pub(crate) unsafe fn walk_chains<N>(
    lanes: &mut [*mut N],
    mut visit: impl FnMut(usize, *mut N) -> *mut N,
) {
    let mut live = true;
    while live {
        live = false;
        for (lane, cur) in lanes.iter_mut().enumerate() {
            if cur.is_null() {
                continue;
            }
            *cur = visit(lane, *cur);
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a prefetch is a hint — it performs no architectural
            // access and cannot fault on any address, null included.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(*cur as *const i8);
            }
            live = true;
        }
    }
}

/// The GC mark walk shared by every `PoolTrace` implementation built on
/// next-pointer chains (list, hash-table buckets, skiplist bottom level,
/// queue node chain, stack chain): the chains rooted at `heads` are marked
/// through [`walk_chains`], each followed along `next` until its end or an
/// already-marked node (a shared suffix needs walking only once).
/// Marked/logically-deleted links are followed like any other — a
/// reachable-but-marked node must survive the sweep so `recover()` can trim
/// it through the collector. `next(lane, node)` gets the chain's index too,
/// so a tracer can note per chain what recovery needs to know.
///
/// # Safety
///
/// Every element of `heads` must be null or a chain node valid under
/// `Pool::open` recovery's quiescence, and `next` must read the node's link
/// word without side effects (raw load, no policy flushes).
pub(crate) unsafe fn trace_chains<N>(
    marker: &mut nvtraverse_pool::Marker<'_>,
    heads: &mut [*mut N],
    mut next: impl FnMut(usize, *mut N) -> *mut N,
) {
    // SAFETY: forwarded — `mark` refuses whatever is not an allocated
    // block's payload, so `next` only ever reads nodes the heap walk vouched
    // for.
    unsafe {
        walk_chains(heads, |lane, node| {
            if marker.mark(node as *const u8) {
                next(lane, node)
            } else {
                std::ptr::null_mut()
            }
        });
    }
}

mod chain;

/// Clears a closed pool file's clean flag (header byte 40), as a crash
/// leaves it: the next open ignores the sealed summary, walks the heap and
/// runs the recovery collection and the structures' recovery.
#[cfg(test)]
pub(crate) fn unseal(path: &std::path::Path) {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.write_all_at(&0u64.to_le_bytes(), 40).unwrap();
}
pub mod ellen_bst;
pub mod hash;
pub mod list;
pub mod nm_bst;
pub mod queue;
pub mod sharded;
pub mod skiplist;
pub mod soft_hash;
pub mod soft_list;
pub mod stack;

/// Aliases for the instantiations the examples and benchmarks name.
pub mod prelude {
    use nvtraverse::policy::NvTraverse;
    use nvtraverse_pmem::Clwb;

    /// The paper's "Traverse" series: NVTraverse on hardware flushes.
    pub type DurableList<K, V> = crate::list::HarrisList<K, V, NvTraverse<Clwb>>;
    /// Durable hash table.
    pub type DurableHashMap<K, V> = crate::hash::HashMapDs<K, V, NvTraverse<Clwb>>;
    /// Durable Ellen et al. BST.
    pub type DurableEllenBst<K, V> = crate::ellen_bst::EllenBst<K, V, NvTraverse<Clwb>>;
    /// Durable Michael–Scott queue.
    pub type DurableQueue<V> = crate::queue::MsQueue<V, NvTraverse<Clwb>>;
}
