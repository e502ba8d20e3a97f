//! SOFT-style sorted linked list: minimal-flush durability via per-node
//! validity words and **volatile links**.
//!
//! This is the repository's rendition of Zuriel et al., "Efficient Lock-Free
//! Durable Sets" (OOPSLA 2019) — the related-work system that goes one step
//! past NVTraverse: where NVTraverse flushes the destination (the critical
//! section's links), SOFT flushes *nothing structural at all*. Every node
//! carries a persistent validity header (sealed on insert, tombstoned on
//! remove); links are ordinary volatile words; and recovery rebuilds the
//! entire list by collecting the sealed nodes and re-linking them in key
//! order. The per-operation persistence cost is the floor the hardware
//! allows: **one flush + one fence** per update, **zero flushes** per
//! lookup (pinned by `tests/persist_bounds.rs`).
//!
//! # Node layout and the validity protocol
//!
//! A node is six 64-bit words, 48 bytes — with the pool's 16-byte block
//! header, exactly one 64-byte block. The first five are the *persistent
//! header*, the last is the volatile link:
//!
//! ```text
//! [ vstart | key | value | owner | seq ]  [ next ]
//!   ^--------- flushed once ---------^    never flushed
//! ```
//!
//! `vstart` is not a constant: it is a **content-bound seal**
//! (`hdr_seal`), a 63-bit checksum over `(key, value, owner, seq)`, while
//! the node is live, and the same seal with bit 63 (`TOMB`) set once it is
//! removed. A header counts as durably inserted only if `vstart` equals
//! the seal recomputed from the header's own data words, and as durably
//! removed only if it equals that seal `| TOMB` — so a tombstone still
//! authenticates its `owner` and `seq`. This is what SOFT's per-chunk
//! alternating validity bits buy in the original paper, obtained here
//! without allocator cooperation:
//!
//! * a **torn header** (crash while the insert's flush was in flight) has
//!   some subset of its words durable; any mix of old and new words fails
//!   the checksum, so it can never be mistaken for a valid node;
//! * a **recycled block** cannot replay its previous life: `seq` is drawn
//!   from a per-list monotonic counter, so even a reinsert of the same
//!   key/value produces a different seal, and a crash that persists only
//!   part of the new header leaves bits that validate as nothing — in
//!   particular, a durably *removed* key can never be resurrected by
//!   reusing its old block (each free path also durably tombstones the
//!   header before the block returns to the allocator).
//!
//! The protocol:
//!
//! * insert: initialize the header with the computed seal, flush the
//!   header (one cache line on the volatile path — the node is 64-aligned),
//!   link with a plain CAS, fence before returning. The insert is durably
//!   linearized at that fence.
//! * remove: CAS `vstart` from `seal` to `seal | TOMB` and flush it (the
//!   durable linearization point, made durable by the closing fence), then
//!   unlink with plain volatile CASes exactly like Harris's list. A get
//!   tests the one bit.
//! * the `owner` word names the owning list (its head sentinel's address),
//!   so recovery in a pool shared by several structures attributes each
//!   node to the right one.
//!
//! The head sentinel's value word, never read as a value, holds the layout
//! tag `"SOFTv003"`. A pool whose SOFT head carries any other tag is
//! refused: its GC tracer refuses the collection (nothing is swept) and
//! attaching returns `None`. Every pool written under the earlier
//! seven-word layout holds 0 there, and probed as this layout about half of
//! its live nodes would read as tombstones and be destroyed; a `"SOFTv002"`
//! head may hold no `seq` lease (below), and resuming from it would issue
//! generations its headers already hold.
//!
//! The volatile chain is the crate's shared Harris chain (`chain.rs`), the
//! one [`HarrisList`](crate::list::HarrisList) walks and trims; SOFT keeps
//! the sealed header, the tombstone before the mark and the rebuild below.
//! Nodes come from the one sized allocation path (`try_alloc_bytes`,
//! `free_bytes`, `Guard::retire_with`), 64-aligned on the volatile heap.
//!
//! # Recovery-rebuild contract
//!
//! The recovered state is a function of the headers alone: this list's
//! sealed nodes, linked in key order (newest generation of each key, see
//! below). The `seq` counter is not recovered from them: the head's `seq`
//! word holds a durable *lease* above every `seq` the list has issued, and
//! every attach — after a crash or a clean close — resumes the counter
//! there. Recovery needs *candidates*: every block that might be one of
//! this list's nodes. Where they come from depends on where the nodes live:
//!
//! * a **pooled** list keeps no inventory at all — the pool already knows
//!   its blocks. The list's `PoolTrace` tracer is the open's one pass over
//!   them: it marks the heads of the lists it traces (one list's, or a
//!   whole table's), then probes each block no tracer has marked once and
//!   looks its `owner` word up once; a sealed node a traced list owns is
//!   marked and filed in that list's plan, and recovery relinks every list
//!   from its plan. Insert and remove touch no lock and no side table, and
//!   nothing volatile outlives a `PooledHandle`;
//! * a **`Box`-backed** list (unit tests, the `Sim` crash sweeps) has no
//!   allocator to ask, so it keeps a volatile *registry* of its allocated
//!   nodes (maintained at allocate/retire time), which is also what its
//!   `Drop` frees.
//!
//! Either way each candidate's header is probed (`probe_header`) **once**,
//! and an open reads each node header once: the relink sorts the plan's
//! live nodes by key and links the chain from that list without reading a
//! header again. It reads each `next` word and stores only the ones that
//! differ, so a chain that is mostly right is mostly left unwritten. A
//! node whose seal never became durable was an in-flight insert (its
//! operation had not fenced, hence had not returned): dropping it is
//! durably linearizable. A sealed node that was never linked (crash between
//! flush and the link CAS) is *kept* — which is also correct, because its
//! insert had not returned either, and resurrecting an in-flight insert is
//! one of the two allowed outcomes. The same rule is why the recovery GC's
//! tracer must keep valid-but-unlinked nodes (see `PoolTrace` below).
//!
//! When two sealed nodes survive with the same key (possible only with
//! concurrent writers — e.g. a remove whose tombstone flush never became
//! durable racing a completed reinsert), recovery keeps the **newest**
//! insert (highest `seq` — the one whose effect could have been returned
//! to a caller) and durably tombstones and frees the stale twins, so no
//! later crash can resurrect them either.
//!
//! # Concurrency caveat
//!
//! Like the original SOFT, readers here do not help persist concurrently
//! in-flight updates: an operation's effect is durable only once *its own*
//! closing fence ran. The same gap exists between concurrent *writers*: a
//! racing update's durable point is its own fence, so a crash can surface
//! header combinations no sequential history produces — the keep-newest
//! rule above resolves the remove-vs-reinsert shape, but (absent SOFT's
//! `pValid` helping bit) a reader- or writer-dependent operation that
//! returned before the operation it depends on fenced is not covered. The
//! exhaustive crash sweep (`tests/crash_soft.rs`) drives sequential
//! histories, where the gap is unobservable; a multi-threaded deployment
//! that needs strict durable linearizability for dependent operations
//! would add SOFT's `pValid` helping bit.

use crate::chain::{self, ChainNode, Window};
use nvtraverse::alloc::{free_bytes, try_alloc_bytes, PoolCtx};
use nvtraverse::detect::OpError;
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{heap, sim, Backend, PCell, Word, POISON};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::mem::offset_of;
use std::ops::ControlFlow;
use std::ptr::addr_of_mut;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(test)]
use std::cell::Cell;
use std::sync::Mutex;

/// The tombstone bit of `vstart`: a durably removed node's `vstart` is its
/// seal with this bit set. No seal has it set.
pub(crate) const TOMB: u64 = 1 << 63;

/// The persistent header prefix of a [`SoftNode`]: `vstart`, `key`,
/// `value`, `owner`, `seq` — everything **except** the volatile link.
pub(crate) const PERSIST_HDR: usize = 5 * 8;

/// The head sentinel's value word in a SOFT list of this node layout. Heads
/// written under an earlier layout hold 0 or `"SOFTv002"` there, so they
/// are refused.
const LAYOUT_TAG: u64 = u64::from_le_bytes(*b"SOFTv003");

/// How far one `seq` lease reaches. A head sentinel's `seq` word holds the
/// list's lease: every `seq` the list has issued lies below it, and it is
/// durable before any header that holds such a `seq` can be, so an open
/// resumes the counter from it without reading a node header. Raising it
/// by this much at a time costs one flush and one fence per `LEASE` seqs.
const LEASE: u64 = 1 << 16;

/// SplitMix64 finalizer (same mixer as the op-descriptor checksum in
/// `nvtraverse_pool::optable`).
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Computes a header's content-bound seal from its data words: 63 bits,
/// bit 63 ([`TOMB`]) clear. A header is durably live iff its stored
/// `vstart` equals the seal recomputed from its stored data words — so a
/// crash that persists any *mix* of one node generation's words with
/// another's (torn flush, recycled block) yields a header that validates
/// as nothing. `seq` comes from the owning list's monotonic allocation
/// counter, which is what distinguishes two generations that inserted the
/// same key and value. The seal's tombstone dodges [`POISON`] (the
/// simulator refuses to store its own poison pattern, and a rolled-back
/// `vstart` must never read as a tombstone); the seal itself cannot equal
/// it, since `POISON` has bit 63 set.
pub(crate) fn hdr_seal(key: u64, value: u64, owner: u64, seq: u64) -> u64 {
    let mut h = 0x5EA1_5EA1_5EA1_5EA1u64;
    for w in [key, value, owner, seq] {
        h = mix64(h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    let seal = h & !TOMB;
    if seal | TOMB == POISON {
        seal ^ 1
    } else {
        seal
    }
}

/// What a raw scan of a candidate block's header words proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HdrProbe {
    /// `vstart` is the seal of the data words: a durably inserted node.
    Live { key: u64, owner: u64, seq: u64 },
    /// `vstart` is that seal `| TOMB`: durably removed.
    Tomb { owner: u64, seq: u64 },
    /// Anything else — torn, in-flight, recycled, or foreign bits.
    Invalid,
}

#[cfg(test)]
thread_local! {
    /// Headers this thread has probed: pins how often an open reads each.
    static PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Classifies a candidate header from raw (never-faulting) word peeks.
///
/// # Safety
///
/// `n` must point to at least [`PERSIST_HDR`] bytes of readable, 8-aligned
/// memory (any allocated block of node size qualifies — the words need not
/// be a real node; arbitrary bits classify as `Invalid`).
pub(crate) unsafe fn probe_header<K: Word, V: Word, B: Backend>(
    n: *const SoftNode<K, V, B>,
) -> HdrProbe {
    #[cfg(test)]
    PROBES.with(|p| p.set(p.get() + 1));
    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
    let (vstart, key, value, owner, seq) = unsafe {
        (
            // nvt-lint: begin-allow(raw-pcell-access): validity-window probe reads raw header bits by design (SOFT recovery rule)
            (*n).vstart.peek_bits(),
            (*n).key.peek_bits(),
            (*n).value.peek_bits(),
            (*n).owner.peek_bits(),
            (*n).seq.peek_bits(),
            // nvt-lint: end-allow(raw-pcell-access)
        )
    };
    let seal = hdr_seal(key, value, owner, seq);
    if vstart == seal {
        HdrProbe::Live { key, owner, seq }
    } else if vstart == seal | TOMB {
        HdrProbe::Tomb { owner, seq }
    } else {
        HdrProbe::Invalid
    }
}

/// Whether `head`, an allocated block of `capacity` payload bytes, is the
/// head sentinel of a SOFT list of this node layout: big enough for a node,
/// with [`LAYOUT_TAG`] in its value word. Checked before anything else in
/// a pool is trusted.
///
/// # Safety
///
/// `head` must point to `capacity` readable, quiescent bytes.
pub(crate) unsafe fn is_soft_head<K: Word, V: Word, B: Backend>(head: *const u8, capacity: u64) -> bool {
    capacity >= std::mem::size_of::<SoftNode<K, V, B>>() as u64
        // SAFETY: per the contract, and the block holds a whole node.
        // nvt-lint: allow(raw-pcell-access): the head's value word is a layout stamp, read as raw bits
        && unsafe { (*head.cast::<SoftNode<K, V, B>>()).value.peek_bits() == LAYOUT_TAG }
}

/// One SOFT node. Field order is the layout contract documented in the
/// [module docs](self): five persistent header words, then the volatile
/// link. Exposed (with private fields) because it appears in the
/// [`TraversalOps`] associated types; user code never constructs nodes.
#[repr(C)]
pub struct SoftNode<K: Word, V: Word, B: Backend> {
    /// Validity word: the content-bound seal ([`hdr_seal`]) while the node
    /// is live, `seal | TOMB` once removed.
    pub(crate) vstart: PCell<u64, B>,
    pub(crate) key: PCell<K, B>,
    pub(crate) value: PCell<V, B>,
    /// Address of the owning list's head sentinel (0 for sentinels):
    /// attributes the node to its structure when a pool holds several.
    pub(crate) owner: PCell<u64, B>,
    /// Per-list monotonic allocation number: makes each node generation's
    /// seals unique (recycled blocks can't replay) and orders duplicate
    /// survivors for recovery's keep-newest rule.
    pub(crate) seq: PCell<u64, B>,
    /// Volatile link: never flushed, rebuilt by recovery.
    pub(crate) next: PCell<MarkedPtr<SoftNode<K, V, B>>, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SoftNode<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftNode").finish_non_exhaustive()
    }
}

// SAFETY: the offsets name the node's own `key`, `value` and `next` cells;
// `key` and `value` are written once, before the node is linked.
unsafe impl<K: Word, V: Word, B: Backend> ChainNode for SoftNode<K, V, B> {
    type K = K;
    type V = V;
    type B = B;
    const KEY: usize = offset_of!(Self, key);
    const VALUE: usize = offset_of!(Self, value);
    const NEXT: usize = offset_of!(Self, next);
}

/// Alignment of a node on the volatile heap: a 64-aligned node puts the
/// 40-byte persistent header in exactly one cache line, so the insert's
/// header flush is deterministically one flush under the counting backend.
/// A pool block keeps its pool's 16-byte alignment (and its own backend).
const VOLATILE_ALIGN: usize = 64;

type NodePtr<K, V, B> = *mut SoftNode<K, V, B>;

/// What a SOFT list's recovery found, for the relink: each live node's
/// `(key bits, seq, node)` — all the relink needs, so no header is read
/// twice by one recovery. Built by the list's `PoolTrace` tracer on a
/// pooled open, or from the list's own candidates by
/// [`SoftList::recover_soft`].
#[derive(Debug, Default)]
pub struct RelinkPlan {
    live: Vec<(u64, u64, *mut u8)>,
}

impl RelinkPlan {
    /// Files candidate `node` by its `probe`: a live node joins the
    /// relink. Returns whether `node` is live.
    fn file(&mut self, node: *mut u8, probe: HdrProbe) -> bool {
        let HdrProbe::Live { key, seq, .. } = probe else {
            return false;
        };
        self.live.push((key, seq, node));
        true
    }
}

/// Returns a node to whichever heap issued it — the one free path, both
/// for teardown and (as the function [`Guard::retire_with`] calls) for EBR
/// reclamation. The volatile alignment is passed for every node: the
/// volatile heap needs it, a pool ignores it.
///
/// # Safety
///
/// `node` came from `SoftList::alloc_soft`, is unreachable, and is freed
/// once.
unsafe fn free_node<K: Word, V: Word, B: Backend>(node: *mut u8) {
    // SAFETY: `alloc_soft` allocated the node at this size (the contract).
    unsafe { free_bytes(node, std::mem::size_of::<SoftNode<K, V, B>>(), VOLATILE_ALIGN) };
}

/// SOFT sorted linked list, parameterized by durability policy.
///
/// Intended for [`Soft<B>`](nvtraverse::policy::Soft) (and the volatile
/// baseline); see the [module docs](self) for the protocol. All operations
/// are lock-free; recovery and the snapshot/consistency helpers are
/// quiescent.
pub struct SoftList<K: Word, V: Word, D: Durability> {
    /// The head sentinel (also what a pool root records).
    pub(crate) head: NodePtr<K, V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from (see `HarrisList::ctx`).
    ctx: PoolCtx,
    /// Live-node inventory of a `Box`-backed list, for the recovery rebuild
    /// and `Drop`: every node currently allocated to this list (pushed at
    /// allocation, dropped at retire/free). `None` for a pooled list, whose
    /// inventory is the pool's own. Stored as addresses: raw pointers are
    /// not `Send`.
    registry: Option<Mutex<Vec<usize>>>,
    /// `head as u64` — the value written into every node's `owner` word.
    owner_tag: u64,
    /// Allocation counter feeding each node's `seq` word. An attach starts
    /// it at the lease, so node generations never repeat within one list
    /// (the seal-uniqueness invariant).
    next_seq: AtomicU64,
    /// The durable lease ([`LEASE`]) as this handle last read or raised it
    /// in the head's `seq` word: `next_seq` may issue below it freely.
    lease: AtomicU64,
    _marker: PhantomData<fn() -> D>,
}

// SAFETY: same argument as `HarrisList` — the raw pointers are only
// dereferenced through the lock-free protocol or quiescently; the registry
// is mutex-protected.
unsafe impl<K: Word, V: Word, D: Durability> Send for SoftList<K, V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Sync for SoftList<K, V, D> {}

// Allocation plumbing, kept free of the `K: Ord` bound so `Drop` (which
// must match the struct's own bounds) can reach it.
impl<K: Word, V: Word, D: Durability> SoftList<K, V, D> {
    /// Allocates a node through the one sized allocation path — from the
    /// entered pool context when one is active, else from the volatile heap
    /// at [`VOLATILE_ALIGN`] — and declares its volatile link to any vet
    /// observer.
    fn alloc_soft(node: SoftNode<K, V, D::B>) -> Option<NodePtr<K, V, D::B>> {
        let align = match heap::current_target() {
            Some(_) => std::mem::align_of::<SoftNode<K, V, D::B>>(),
            None => VOLATILE_ALIGN,
        };
        let p = try_alloc_bytes::<D::B>(std::mem::size_of::<SoftNode<K, V, D::B>>(), align)?
            .cast::<SoftNode<K, V, D::B>>();
        // SAFETY: a fresh block of node size, aligned for a node, that
        // nothing else can see yet.
        unsafe {
            p.write(node);
            // SOFT keeps its links volatile (recovery rebuilds them from
            // the durable payloads); tell any vet observer so `next` is
            // exempt from durability rules.
            sim::current_mark_volatile_range((*p).next.addr() as usize, 8);
        }
        Some(p)
    }

    /// Takes `p` out of the registry and retires it into the collector.
    ///
    /// # Safety
    ///
    /// `p` is unlinked for good: no new traversal can reach it.
    unsafe fn retire(&self, guard: &Guard, p: NodePtr<K, V, D::B>) {
        self.unregister(p);
        // SAFETY: unlinked (the contract); EBR defers the free until all
        // pre-retire guards drop, and `free_node` is this node's free path.
        unsafe { guard.retire_with(p.cast(), free_node::<K, V, D::B>) };
    }

    /// The `Box`-backed list's registry, locked; `None` for a pooled list.
    fn registry(&self) -> Option<std::sync::MutexGuard<'_, Vec<usize>>> {
        let reg = self.registry.as_ref()?;
        Some(reg.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn register(&self, p: NodePtr<K, V, D::B>) {
        if let Some(mut reg) = self.registry() {
            reg.push(p as usize);
        }
    }

    fn unregister(&self, p: NodePtr<K, V, D::B>) {
        if let Some(mut reg) = self.registry() {
            if let Some(i) = reg.iter().position(|&a| a == p as usize) {
                reg.swap_remove(i);
            }
        }
    }
}

impl<K, V, D> SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates an empty list (its own collector).
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty list that retires nodes into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let head = Self::alloc_soft(SoftNode {
            vstart: PCell::new(0), // sentinel: never a resurrection candidate
            key: PCell::new(K::from_bits(0)),
            value: PCell::new(V::from_bits(0)),
            owner: PCell::new(0),
            seq: PCell::new(LEASE),
            next: PCell::new(MarkedPtr::null()),
        })
        .expect("persistent pool exhausted while allocating list head");
        // SAFETY: a fresh head nothing else can see; the value word is
        // written raw, since `V` may not hold all 64 bits of the tag.
        unsafe { addr_of_mut!((*head).value).cast::<PCell<u64, D::B>>().write(PCell::new(LAYOUT_TAG)) };
        // Persist the empty list, tag and first lease included, so it
        // survives a crash at time zero.
        D::persist_new_node(head as *const u8, PERSIST_HDR);
        D::before_return();
        // SAFETY: `head` was just allocated by this type, in the current scope.
        let list = unsafe { Self::attach_at(head, collector) };
        // Nothing issued yet: the first lease covers the `seq`s from 1.
        list.next_seq.store(1, Ordering::Relaxed);
        list
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Builds the list handle around a head sentinel allocated from the
    /// current allocation scope — a fresh one, or (the attach half of the
    /// pool lifecycle) one found again in a pool, whose nodes its
    /// `PoolTrace` tracer finds among the pool's allocated blocks. The
    /// `seq` counter starts at the head's lease: no header is read.
    ///
    /// # Safety
    ///
    /// `head` must be the head sentinel of a SOFT list built with the same
    /// `K`/`V`/`D` parameters, reachable and quiescent, and the caller must
    /// not create two dropping handles to the same list.
    pub(crate) unsafe fn attach_at(head: NodePtr<K, V, D::B>, collector: Collector) -> Self {
        let ctx = PoolCtx::current();
        // SAFETY: the head is live (the contract); its `seq` word is the
        // lease, read raw like every header word recovery reads.
        // nvt-lint: allow(raw-pcell-access): the lease is read once, raw, on a quiescent head
        let lease = unsafe { (*head).seq.peek_bits() };
        SoftList {
            head,
            collector,
            registry: (!ctx.is_pooled()).then(|| Mutex::new(Vec::new())),
            ctx,
            owner_tag: head as u64,
            next_seq: AtomicU64::new(lease),
            lease: AtomicU64::new(lease),
            _marker: PhantomData,
        }
    }

    /// The next node generation: a fresh `seq`, under the durable lease.
    fn issue_seq(&self) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if seq >= self.lease.load(Ordering::Acquire) {
            self.extend_lease(seq);
        }
        seq
    }

    /// Raises the head's lease past `seq` and makes it durable (one flush,
    /// one fence) before `seq` can reach any header. A thread that finds it
    /// already raised flushes and fences it too, since the raiser's flush
    /// may still be in flight.
    #[cold]
    fn extend_lease(&self, seq: u64) {
        // SAFETY: the head sentinel lives as long as the list.
        let word = unsafe { &(*self.head).seq };
        // nvt-lint: begin-allow(raw-pcell-access): SOFT places its own flushes: the lease is flushed and fenced right here
        let mut lease = word.peek_bits();
        while lease <= seq {
            match word.compare_exchange(lease, seq + LEASE) {
                Ok(_) => lease = seq + LEASE,
                Err(now) => lease = now,
            }
        }
        // nvt-lint: end-allow(raw-pcell-access)
        D::B::flush(word.addr());
        D::B::fence();
        self.lease.fetch_max(lease, Ordering::Release);
    }

    /// Quiescent: collects the unmarked `(key, value)` pairs in list order.
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        chain::snapshot(self.head)
    }

    /// Quiescent: verifies structural invariants, returning the number of
    /// live (unmarked) nodes.
    ///
    /// # Errors
    ///
    /// Describes the violation: unsorted keys, a reachable unmarked node
    /// that is not sealed, or (when `allow_marked` is false, e.g. right
    /// after recovery) a reachable marked node.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        chain::check(self.head, allow_marked, |n| {
            // SAFETY: quiescent; `n` is a linked node.
            match unsafe { probe_header(n) } {
                HdrProbe::Live { .. } => Ok(()),
                _ => Err("reachable unmarked node is not durably sealed".into()),
            }
        })
    }

    /// The SOFT recovery procedure: rebuild all links from the surviving
    /// valid nodes (see the [module docs](self) for why each keep/drop
    /// decision is durably linearizable). Quiescent. A pooled list with no
    /// pool to ask (an in-process `recover()` after the open's) takes the
    /// nodes still linked behind its head, links this process built.
    pub fn recover_soft(&self) {
        if !D::DURABLE {
            return;
        }
        let mut plan = RelinkPlan::default();
        let mut take = |n: NodePtr<K, V, D::B>| {
            // Raw peeks: any of these words may have rolled back to poison
            // (never persisted) under the simulator; the seal checksum
            // rejects every such header without key-filtering real data.
            // SAFETY: recovery runs single-threaded on a quiescent structure; every candidate is a node this list allocated.
            plan.file(n.cast(), unsafe { probe_header(n) });
        };
        match self.registry() {
            Some(reg) => reg.iter().for_each(|&a| take(a as NodePtr<K, V, D::B>)),
            None => {
                chain::walk::<_, ()>(self.head, |n, _| {
                    take(n);
                    ControlFlow::Continue(())
                });
            }
        }
        self.relink(plan);
    }

    /// The rebuild behind [`recover_soft`](Self::recover_soft) and a pooled
    /// open's recovery: links the `plan`'s live nodes in key order, reading
    /// no header again. Each link word is read first and stored only when it
    /// changes, so a chain that is mostly right is mostly left unwritten,
    /// and nothing is fenced unless a stale twin was tombstoned.
    fn relink(&self, plan: RelinkPlan) {
        let RelinkPlan { mut live } = plan;
        live.sort_unstable_by_key(|&(key, ..)| K::from_bits(key));
        // SAFETY: recovery runs single-threaded on a quiescent structure; every node is a live one of this list.
        let link = |pred: NodePtr<K, V, D::B>, succ: MarkedPtr<SoftNode<K, V, D::B>>| unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): single-threaded recovery compares and rewrites volatile links by design
            if (*pred).next.peek_bits() != succ.to_bits() {
                (*pred).next.store(succ);
            }
        };
        // SAFETY: as for `link`; a stale twin is a live node, its `vstart` its seal.
        let tombstone = |n: NodePtr<K, V, D::B>| unsafe {
            let vstart = &(*n).vstart;
            vstart.store(vstart.peek_bits() | TOMB);
            // nvt-lint: end-allow(raw-pcell-access)
            D::B::flush(vstart.addr());
        };
        let mut stale: Vec<NodePtr<K, V, D::B>> = Vec::new();
        let mut pred = self.head;
        // The newest generation of each key is linked: duplicate sealed
        // nodes only arise from crashed concurrent writers (e.g. a remove
        // whose tombstone flush never drained racing a completed reinsert),
        // and the newest insert is the one whose effect a caller could have
        // been told about. `seq` is unique within a list.
        for twins in live.chunk_by(|a, b| a.0 == b.0) {
            let newest = twins.iter().map(|t| t.1).max().unwrap_or_default();
            for &(_, seq, n) in twins {
                let n = n.cast::<SoftNode<K, V, D::B>>();
                if seq == newest {
                    link(pred, MarkedPtr::new(n));
                    pred = n;
                } else {
                    stale.push(n);
                }
            }
        }
        link(pred, MarkedPtr::null());
        if stale.is_empty() {
            return;
        }
        // Durably tombstone the stale twins so no later crash can resurrect
        // them, then free them — fence first: the blocks must not reach the
        // allocator (nor, under the simulator, drop their cell
        // registrations) until the tombstones have drained.
        stale.iter().for_each(|&n| tombstone(n));
        D::before_return();
        for n in stale {
            self.unregister(n);
            // SAFETY: recovery runs single-threaded on a quiescent structure; a stale twin is linked nowhere.
            unsafe { free_node::<K, V, D::B>(n.cast()) };
        }
    }
}

impl<K, V, D> TraversalOps for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = SetOp<K, V>;
    /// `Insert` → existing value if the key was present (failure);
    /// `Remove`/`Get` → the value found.
    type Output = Option<V>;
    type Entry = NodePtr<K, V, D::B>;
    type Window = Window<SoftNode<K, V, D::B>>;

    fn find_entry(&self, _guard: &Guard, _input: Self::Input) -> Self::Entry {
        self.head
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let (SetOp::Insert(key, _) | SetOp::Remove(key) | SetOp::Get(key)) = input;
        chain::traverse::<_, D>(self.head, entry, |k| k < key)
    }

    fn collect_persist_set(&self, _w: &Self::Window, _out: &mut PersistSet) {
        // Protocol 1 is empty under SOFT: there are no persistent links to
        // make reachable, and the policy's `make_persistent` is a no-op.
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        // deleteMarkedNodes; the trimmed run leaves the registry as it is
        // retired.
        // SAFETY: a trimmed node is unlinked for good.
        let trim = || chain::trim::<_, D, _>(&w, Some(|n| unsafe { self.retire(guard, n) }));
        // A linked node's `vstart` is either its seal or `seal | TOMB`.
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let tombstoned = |n: NodePtr<K, V, D::B>| D::c_load(unsafe { &(*n).vstart }) & TOMB != 0;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let left_next = unsafe { &(*w.left).next };
        match input {
            // Tombstoned but not yet unlinked: logically absent.
            SetOp::Get(key) => {
                Critical::Done((w.hit::<D>(key) && !tombstoned(w.right)).then(|| w.value::<D>()))
            }
            SetOp::Insert(key, value) => {
                if !trim() {
                    return Critical::Restart;
                }
                if w.hit::<D>(key) {
                    if !tombstoned(w.right) {
                        // Duplicate of a live node: insert fails.
                        return Critical::Done(Some(w.value::<D>()));
                    }
                    // Tombstoned twin still linked: help mark it out of the
                    // way, then retry against the updated list.
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    let right_next = unsafe { &(*w.right).next };
                    // nvt-lint: allow(raw-pcell-access): raw read feeding a policy-routed helping CAS; durability comes from the CAS route
                    let rn = right_next.load();
                    if !rn.is_marked() {
                        let _ = D::c_cas_link(right_next, rn, rn.with_mark());
                    }
                    return Critical::Restart;
                }
                let seq = self.issue_seq();
                let seal = hdr_seal(key.to_bits(), value.to_bits(), self.owner_tag, seq);
                let Some(node) = Self::alloc_soft(SoftNode {
                    vstart: PCell::new(seal),
                    key: PCell::new(key),
                    value: PCell::new(value),
                    owner: PCell::new(self.owner_tag),
                    seq: PCell::new(seq),
                    next: PCell::new(MarkedPtr::new(w.right)),
                }) else {
                    // Pool exhausted: report "no effect" through the
                    // duplicate-shaped output (see `HarrisList::critical`).
                    return Critical::Done(Some(value));
                };
                self.register(node);
                // The insert's one flush: the persistent header (not the
                // volatile link word behind it).
                D::persist_new_node(node as *const u8, PERSIST_HDR);
                match D::c_cas_link(left_next, MarkedPtr::new(w.right), MarkedPtr::new(node)) {
                    Ok(()) => Critical::Done(None),
                    Err(_) => {
                        self.unregister(node);
                        // The sealed-header flush above may still drain at
                        // some later fence even though the node was never
                        // published. Durably tombstone it before the block
                        // returns to the allocator, so a recycled block can
                        // never replay this generation's seal (an off-hot-
                        // path fence: contended retries only).
                        // SAFETY: never published: the node is ours alone.
                        unsafe {
                            // nvt-lint: allow(raw-pcell-access): SOFT places its own flushes: the tombstone seal is flushed explicitly right here
                            (*node).vstart.store(seal | TOMB);
                            D::B::flush((*node).vstart.addr());
                        }
                        D::before_return();
                        // SAFETY: never published: the node is ours alone.
                        unsafe { free_node::<K, V, D::B>(node.cast()) };
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                if !trim() {
                    return Critical::Restart;
                }
                if !w.hit::<D>(key) {
                    return Critical::Done(None);
                }
                // The durable linearization point: seal → seal | TOMB, one
                // flush, fenced by the operation's closing `before_return`.
                // The expected seal is recomputed from the node's immutable
                // words; a concurrent remove already tombstoned it iff the
                // CAS misses.
                let value = w.value::<D>();
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let right = unsafe { &*w.right };
                let seq = D::load_fixed(&right.seq);
                let seal = hdr_seal(key.to_bits(), value.to_bits(), self.owner_tag, seq);
                match D::c_cas(&right.vstart, seal, seal | TOMB) {
                    Ok(_) => {
                        // Logical deletion done; now the volatile unlink,
                        // Harris-style: mark, then best-effort splice (a
                        // failed splice is finished by a later trim).
                        loop {
                            // nvt-lint: allow(raw-pcell-access): raw read feeding a policy-routed helping CAS; durability comes from the CAS route
                            let rn = right.next.load();
                            if rn.is_marked() {
                                // An inserter that saw our tombstone helped
                                // mark the node (the duplicate path); the
                                // physical unlink — and the retire — is a
                                // later trim's job.
                                break;
                            }
                            if D::c_cas_link(&right.next, rn, rn.with_mark()).is_ok() {
                                if D::c_cas_link(left_next, MarkedPtr::new(w.right), rn).is_ok() {
                                    // SAFETY: the node is unlinked (no new traversal can reach it).
                                    unsafe { self.retire(guard, w.right) };
                                }
                                break;
                            }
                        }
                        Critical::Done(Some(value))
                    }
                    // Already tombstoned by a concurrent remove: a miss.
                    Err(_) => Critical::Done(None),
                }
            }
        }
    }
}

impl<K, V, D> DurableSet<K, V> for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.try_insert(key, value)
            .expect("persistent pool exhausted (and volatile fallback would lose data)")
    }

    fn remove(&self, key: K) -> bool {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Remove(key)).is_some()
    }

    fn get(&self, key: K) -> Option<V> {
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Get(key))
    }

    fn len(&self) -> usize {
        chain::len(self.head)
    }

    fn recover(&self) {
        self.recover_soft();
    }

    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        chain::allocating(&self.ctx, &self.collector, |guard| {
            run_operation(self, guard, SetOp::Insert(key, value)).is_none()
        })
    }
}

impl<K, V, D> PoolAttach for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let list = Self::with_collector(pool.collector().clone());
        pool.set_root_ptr_checked(name, list.head)?;
        Ok(list)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let head = pool.attach_root_ptr::<SoftNode<K, V, D::B>>(name)?;
        // SAFETY: the tag is read only from an allocated block of this pool, within its payload.
        if !pool.is_allocated_payload(pool.offset_of(head as *const u8))
            || unsafe { !is_soft_head::<K, V, D::B>(head as *const u8, pool.usable_size(head as *const u8)) }
        {
            return None;
        }
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(head, pool.collector().clone()) })
    }
}

// SAFETY: SOFT reachability is not link-based — recovery keeps exactly the
// sealed nodes owned by this list, linked or not. The tracer
// ([`trace_owned`]) enumerates the blocks no tracer marked through
// `Marker::mark_allocated_if` and marks every sealed node this list owns.
// So a valid-but-unlinked node (crash between the header flush and the
// link CAS) is kept, as the recovery-rebuild contract requires; in-flight
// (unsealed) and tombstoned nodes are left for the sweep. A head without this layout's tag was written under
// another node layout: the tracer refuses the collection rather than probe
// its nodes as this layout.
// SAFETY: the trace only reads; the relink is `recover_attached`'s, on the plan.
unsafe impl<K, V, D> nvtraverse::PoolTrace for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type Plan = RelinkPlan;

    // SAFETY: see `PoolTrace::trace` — `root` is a root this type created, on the quiescent, header-verified heap of `Pool::open` recovery.
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) -> Self::Plan {
        // SAFETY: `capacity_of` vouches for `root` as an allocated payload of that many bytes; the heap is quiescent.
        if !marker.capacity_of(root).is_some_and(|cap| unsafe { is_soft_head::<K, V, D::B>(root, cap) }) {
            marker.refuse();
            return RelinkPlan::default();
        }
        // SAFETY: forwarded — quiescent, validated heap; `root` is a SOFT head of this layout.
        unsafe { trace_owned::<K, V, D::B>(&[root], marker) }.pop().unwrap_or_default()
    }

    fn recover_attached(&self, plan: Self::Plan) {
        if D::DURABLE {
            self.relink(plan);
        }
    }
}

/// Which of a set of SOFT lists an `owner` word names: an open-addressed
/// hash of the head-sentinel addresses (a table has one per bucket), so
/// each allocated block of the pool costs one lookup. No head is at
/// address 0, so 0 marks an empty slot — and a head's own `owner` word,
/// 0, names no list.
struct Owners {
    slots: Box<[(u64, usize)]>,
    shift: u32,
}

impl Owners {
    fn new(heads: &[u64]) -> Self {
        let bits = (2 * heads.len()).next_power_of_two().trailing_zeros().max(1);
        let mut owners = Owners {
            slots: vec![(0, 0); 1 << bits].into_boxed_slice(),
            shift: u64::BITS - bits,
        };
        for (i, &tag) in heads.iter().enumerate() {
            let slot = owners.probe(tag);
            owners.slots[slot] = (tag, i);
        }
        owners
    }

    /// The slot holding `tag`, or the empty one a lookup of it stops at.
    fn probe(&self, tag: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.slots[slot].0 != 0 && self.slots[slot].0 != tag {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Index (in construction order) of the list whose head is at `tag`.
    fn owned_by(&self, tag: u64) -> Option<usize> {
        let (found, i) = self.slots[self.probe(tag)];
        (found != 0 && found == tag).then_some(i)
    }
}

/// The SOFT tracer of `heads` (one list's head sentinel, or every bucket's
/// of a table). It marks each head, then makes one pass over the blocks no
/// tracer has marked: it probes each header once and looks its `owner`
/// word up once among `heads`, and marks and files every sealed, live node
/// a head owns. Tombstones, torn and in-flight headers are left for the
/// sweep. Returns one plan per head, in `heads` order.
///
/// # Safety
///
/// Same contract as [`nvtraverse_pool::TraceFn`]: called on a validated
/// quiescent heap, with every element of `heads` a SOFT head of this
/// layout; reads only words of allocated blocks the marker vouches for.
pub(crate) unsafe fn trace_owned<K: Word, V: Word, B: Backend>(
    heads: &[*mut u8],
    marker: &mut nvtraverse_pool::Marker<'_>,
) -> Vec<RelinkPlan> {
    let tags: Vec<u64> = heads
        .iter()
        .map(|&head| {
            marker.mark(head);
            head as u64
        })
        .collect();
    let owners = Owners::new(&tags);
    let mut plans: Vec<RelinkPlan> = heads.iter().map(|_| RelinkPlan::default()).collect();
    let node_size = std::mem::size_of::<SoftNode<K, V, B>>() as u64;
    marker.mark_allocated_if(|p, cap| {
        if cap < node_size {
            return false;
        }
        // SAFETY: `p` is an allocated payload of at least node size.
        let probe = unsafe { probe_header(p as *const SoftNode<K, V, B>) };
        let HdrProbe::Live { owner, .. } = probe else {
            return false;
        };
        owners.owned_by(owner).is_some_and(|i| plans[i].file(p, probe))
    });
    plans
}

impl<K, V, D> Default for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for SoftList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftList")
            .field("len", &chain::len(self.head))
            .field("durable", &D::DURABLE)
            .finish()
    }
}

impl<K: Word, V: Word, D: Durability> Drop for SoftList<K, V, D> {
    fn drop(&mut self) {
        // Exclusive access. A `Box`-backed list's registry is exactly the
        // set of nodes it still owns (live, tombstoned-but-unspliced, or
        // crash garbage) — trimmed nodes were unregistered and handed to the
        // collector — so no link walk is needed and poisoned links can't
        // mislead it. A pooled list has no registry: its nodes belong to
        // the pool, which finds them again at the next open.
        let Some(reg) = self.registry.take() else {
            return;
        };
        // SAFETY: exclusive teardown: every node freed is unreachable, once.
        let free = |n: NodePtr<K, V, D::B>| unsafe { free_node::<K, V, D::B>(n.cast()) };
        let reg = reg.into_inner().unwrap_or_else(|e| e.into_inner());
        reg.into_iter().for_each(|a| free(a as NodePtr<K, V, D::B>));
        free(self.head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Soft, Volatile};
    use nvtraverse_pmem::{Clwb, Noop, Sim, SimHandle};

    fn soft_smoke<D: Durability>() {
        let l: SoftList<u64, u64, D> = SoftList::new();
        assert!(l.is_empty());
        assert!(l.insert(2, 20));
        assert!(l.insert(1, 10));
        assert!(l.insert(3, 30));
        assert!(!l.insert(2, 99), "duplicate insert must fail");
        assert_eq!(l.get(2), Some(20), "failed insert must not overwrite");
        assert_eq!(l.len(), 3);
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.get(2), None);
        assert_eq!(l.check_consistency(true).unwrap(), 2);
        assert_eq!(l.iter_snapshot(), vec![(1, 10), (3, 30)], "must stay sorted");
    }

    #[test]
    fn soft_semantics() {
        soft_smoke::<Soft<Clwb>>();
    }

    #[test]
    fn volatile_semantics() {
        soft_smoke::<Volatile>();
    }

    #[test]
    fn matches_model_on_random_sequential_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let l: SoftList<u64, u64, Soft<Noop>> = SoftList::new();
        let mut model = ModelSet::new();
        for i in 0..3000u64 {
            let k = rng.random_range(0..64);
            match rng.random_range(0..3) {
                0 => assert_eq!(l.insert(k, i), model.insert(k, i), "insert({k})"),
                1 => assert_eq!(l.remove(k), model.remove(k), "remove({k})"),
                _ => assert_eq!(l.get(k), model.get(k), "get({k})"),
            }
        }
        assert_eq!(l.len(), model.len());
        let pairs: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(l.iter_snapshot(), pairs);
    }

    #[test]
    fn concurrent_disjoint_ranges_keep_all_inserts() {
        const THREADS: u64 = 4;
        const PER: u64 = 300;
        let l: SoftList<u64, u64, Soft<Clwb>> = SoftList::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let l = &l;
                s.spawn(move || {
                    let base = t * PER;
                    for k in base..base + PER {
                        assert!(l.insert(k, k));
                    }
                    for k in (base..base + PER).step_by(3) {
                        assert!(l.remove(k));
                    }
                });
            }
        });
        let expected = (THREADS * PER) as usize - (THREADS as usize * PER.div_ceil(3) as usize);
        assert_eq!(l.check_consistency(true).unwrap(), expected);
    }

    #[test]
    fn concurrent_contended_single_key_is_coherent() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let l: SoftList<u64, u64, Soft<Clwb>> = SoftList::new();
        let balance = AtomicI64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = &l;
                let balance = &balance;
                s.spawn(move || {
                    for i in 0..2000 {
                        if i % 2 == 0 {
                            if l.insert(42, 1) {
                                balance.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if l.remove(42) {
                            balance.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let final_present = l.contains(42) as i64;
        assert_eq!(balance.load(Ordering::Relaxed), final_present);
        l.check_consistency(true).unwrap();
    }

    #[test]
    fn recovery_rebuilds_links_from_sealed_nodes() {
        let sim = SimHandle::new();
        let guard = sim.enter();
        let l: SoftList<u64, u64, Soft<Sim>> = SoftList::with_collector(Collector::leaking());
        for k in [5u64, 1, 3, 2, 4] {
            assert!(l.insert(k, k * 10));
        }
        assert!(l.remove(3));
        // Crash: all link words (never flushed) roll back to poison; the
        // validity headers survive.
        unsafe { sim.crash_and_rollback() };
        l.recover_soft();
        assert_eq!(l.check_consistency(false).unwrap(), 4);
        assert_eq!(
            l.iter_snapshot(),
            vec![(1, 10), (2, 20), (4, 40), (5, 50)],
            "recovery must rebuild the sorted chain without the tombstoned key"
        );
        assert!(l.insert(3, 33), "list must be fully usable after recovery");
        drop(l);
        drop(guard);
    }

    #[test]
    fn empty_list_operations() {
        let l: SoftList<u64, u64, Soft<Noop>> = SoftList::new();
        assert_eq!(l.get(1), None);
        assert!(!l.remove(1));
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert_eq!(l.check_consistency(false).unwrap(), 0);
        l.recover();
        assert!(l.is_empty());
    }

    #[test]
    fn debug_format_mentions_len() {
        let l: SoftList<u64, u64, Volatile> = SoftList::new();
        l.insert(1, 1);
        let s = format!("{l:?}");
        assert!(s.contains("len"), "{s}");
    }

    /// The GC reachability rule, white-box: a sealed node no link reaches
    /// (an insert that crashed between its header flush and its volatile
    /// link CAS) must survive the reopen's mark-sweep and be resurrected
    /// by recovery, while a torn header (a data word missing) is garbage.
    #[test]
    fn gc_keeps_sealed_but_unlinked_nodes_and_sweeps_torn_ones() {
        use nvtraverse::TypedRoots;
        use nvtraverse_pmem::MmapBackend;
        type L = SoftList<u64, u64, Soft<MmapBackend>>;

        let path = std::env::temp_dir().join(format!(
            "nvt-soft-orphan-{}.pool",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        {
            let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
            let list = pool.create_root::<L>("s").unwrap();
            assert!(list.insert(1, 10));
            assert!(list.insert(2, 20));
            let _scope = PoolCtx::of(list.pool()).enter();
            // The durable footprint of an insert that crashed after its
            // header flush, before publication: fully sealed + owned,
            // unlinked, unregistered.
            let owner = list.head as u64;
            L::alloc_soft(SoftNode {
                vstart: PCell::new(hdr_seal(9, 90, owner, 1000)),
                key: PCell::new(9u64),
                value: PCell::new(90u64),
                owner: PCell::new(owner),
                seq: PCell::new(1000),
                next: PCell::new(MarkedPtr::null()),
            })
            .unwrap();
            // And one that crashed *mid*-header-flush: its seal drained,
            // its `seq` word never did.
            L::alloc_soft(SoftNode {
                vstart: PCell::new(hdr_seal(11, 110, owner, 1001)),
                key: PCell::new(11u64),
                value: PCell::new(110u64),
                owner: PCell::new(owner),
                seq: PCell::new(0),
                next: PCell::new(MarkedPtr::null()),
            })
            .unwrap();
            list.close().unwrap();
        }

        // As a crash leaves it: the clean close sealed the image.
        crate::unseal(&path);
        let pool = Pool::builder().path(&path).open().unwrap();
        let list = pool.root::<L>("s").unwrap();
        let report = pool.recovery_report();
        assert!(report.gc_ran);
        assert_eq!(report.reclaimed_blocks, 1, "exactly the torn node is garbage");
        assert_eq!(
            list.iter_snapshot(),
            vec![(1, 10), (2, 20), (9, 90)],
            "sealed-but-unlinked must be resurrected; torn must be dropped"
        );
        assert_eq!(list.check_consistency(false).unwrap(), 3);
        drop(list);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// A pooled open reads each node header once: the probe of the trace
    /// (the GC's mark) is the only one, and the relink works from its plan.
    /// The head is known by its layout tag and is not probed.
    #[test]
    fn a_pooled_open_probes_each_header_once() {
        use nvtraverse::TypedRoots;
        use nvtraverse_pmem::MmapBackend;
        type L = SoftList<u64, u64, Soft<MmapBackend>>;
        let path = std::env::temp_dir().join(format!("nvt-soft-probes-{}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
            let list = pool.create_root::<L>("s").unwrap();
            for k in 0..500u64 {
                assert!(list.insert(k, k));
            }
            for k in 0..100u64 {
                assert!(list.remove(k));
            }
            list.close().unwrap();
        }
        crate::unseal(&path);
        let pool = Pool::builder().path(&path).open().unwrap();
        PROBES.with(|p| p.set(0));
        let list = pool.root::<L>("s").unwrap();
        let probes = PROBES.with(Cell::get);
        let report = pool.recovery_report();
        assert!(report.gc_ran);
        // The head and 400 nodes; only the nodes are probed.
        assert_eq!(report.live_blocks + report.reclaimed_blocks, 401);
        assert_eq!(probes, 400, "an open probed a header more than once");
        assert_eq!(list.len(), 400);
        drop(list);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// The block-reuse hazard, word-level: a freed node's persisted words
    /// (tombstoned generation A) overlaid with any *partial* persist of the
    /// reusing generation B must classify as garbage — never as a live
    /// header of either generation — even when both generations carry the
    /// same key and value.
    #[test]
    fn recycled_block_word_mixtures_never_probe_live() {
        let owner = 0xABCu64;
        let a = hdr_seal(7, 70, owner, 3);
        let b = hdr_seal(7, 70, owner, 9);
        assert_ne!(a, b, "seq must distinguish same-content generations");
        let mk = |vstart, seq| SoftNode::<u64, u64, Noop> {
            vstart: PCell::new(vstart),
            key: PCell::new(7),
            value: PCell::new(70),
            owner: PCell::new(owner),
            seq: PCell::new(seq),
            next: PCell::new(MarkedPtr::null()),
        };
        let probe = |vstart, seq| unsafe { probe_header(&mk(vstart, seq)) };
        // Generation A's full header: live before the remove, a tombstone
        // after (what the allocator hands out for reuse).
        assert!(matches!(probe(a, 3), HdrProbe::Live { seq: 3, .. }));
        assert!(matches!(probe(a | TOMB, 3), HdrProbe::Tomb { seq: 3, .. }));
        // A crash persisting only generation B's vstart over the freed
        // block: the scenario that once resurrected old data.
        assert_eq!(probe(b, 3), HdrProbe::Invalid);
        // Every other partial overlay is equally invalid, including one
        // generation's data under the other's tombstone.
        assert_eq!(probe(a, 9), HdrProbe::Invalid);
        assert_eq!(probe(a | TOMB, 9), HdrProbe::Invalid);
        assert_eq!(probe(b | TOMB, 3), HdrProbe::Invalid);
        // A rolled-back (poisoned) vstart is neither.
        assert_eq!(probe(POISON, 3), HdrProbe::Invalid);
        // Only generation B's complete header is live again, and its own
        // tombstone still authenticates it.
        assert!(matches!(probe(b, 9), HdrProbe::Live { seq: 9, .. }));
        assert!(matches!(probe(b | TOMB, 9), HdrProbe::Tomb { seq: 9, .. }));
    }

    /// The one-word protocol's invariants: a seal never has the tombstone
    /// bit, and a tombstone is never the simulator's poison (which a
    /// rolled-back `vstart` reads as).
    #[test]
    fn seals_leave_the_tomb_bit_clear_and_tombstones_miss_poison() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EA1);
        for i in 0..100_000u64 {
            let seal = hdr_seal(rng.next_u64(), rng.next_u64(), rng.next_u64(), i);
            assert_eq!(seal & TOMB, 0, "seal {seal:#x} has the tomb bit");
            assert_ne!(seal | TOMB, POISON);
        }
        assert_ne!(hdr_seal(0, 0, 0, 0), 0, "a zeroed block would probe live");
    }

    /// A node is six words, so a pooled node fills exactly one 64-byte
    /// block (48 bytes of payload behind the 16-byte block header).
    #[test]
    fn node_sizes_match_the_pool_blocks() {
        use nvtraverse_pmem::MmapBackend;
        type L = SoftList<u64, u64, Soft<MmapBackend>>;
        assert_eq!(std::mem::size_of::<SoftNode<u64, u64, MmapBackend>>(), 48);
        assert_eq!(PERSIST_HDR, offset_of!(SoftNode<u64, u64, MmapBackend>, next));
        let path = std::env::temp_dir().join(format!("nvt-soft-sizes-{}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let scope = PoolCtx::of(&pool).enter();
        let node = L::alloc_soft(SoftNode {
            vstart: PCell::new(0),
            key: PCell::new(1u64),
            value: PCell::new(10u64),
            owner: PCell::new(0),
            seq: PCell::new(1),
            next: PCell::new(MarkedPtr::null()),
        })
        .unwrap();
        assert_eq!(pool.usable_size(node as *const u8) + 16, 64, "not the 64-byte class");
        // SAFETY: never published.
        unsafe { free_node::<u64, u64, MmapBackend>(node.cast()) };
        drop(scope);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// Two durably sealed nodes for one key — the wreckage of a remove
    /// whose tombstone flush never drained racing a completed reinsert —
    /// must resolve to the *newest* generation, and the stale twin must be
    /// durably retired so no later crash resurrects it.
    #[test]
    fn recovery_keeps_the_newest_duplicate_and_durably_retires_the_stale_twin() {
        type L = SoftList<u64, u64, Soft<Sim>>;
        let sim = SimHandle::new();
        let guard = sim.enter();
        let l: L = SoftList::with_collector(Collector::leaking());
        let owner = l.owner_tag;
        for (value, seq) in [(10u64, 5u64), (20, 9)] {
            let n = L::alloc_soft(SoftNode {
                vstart: PCell::new(hdr_seal(1, value, owner, seq)),
                key: PCell::new(1u64),
                value: PCell::new(value),
                owner: PCell::new(owner),
                seq: PCell::new(seq),
                next: PCell::new(MarkedPtr::null()),
            })
            .unwrap();
            l.register(n);
            Soft::<Sim>::persist_new_node(n as *const u8, PERSIST_HDR);
        }
        Soft::<Sim>::before_return();
        unsafe { sim.crash_and_rollback() };
        l.recover_soft();
        assert_eq!(l.get(1), Some(20), "keep-newest: the reinsert's value wins");
        assert_eq!(l.check_consistency(false).unwrap(), 1);
        // The durable lease an attach would resume from covers both
        // generations.
        assert!(unsafe { (*l.head).seq.peek_bits() } > 9);
        // Remove the survivor, crash, recover: the stale (1, 10) twin must
        // not come back from the dead.
        assert!(l.remove(1));
        unsafe { sim.crash_and_rollback() };
        l.recover_soft();
        assert_eq!(l.get(1), None, "stale twin resurrected after a later crash");
        assert_eq!(l.check_consistency(false).unwrap(), 0);
        drop(l);
        drop(guard);
    }

    /// The simulator reserves `0xDEAD_BEEF_DEAD_BEEF` as its rollback
    /// poison, but on a real backend those bits are ordinary data: recovery
    /// must never key-filter them away.
    #[test]
    fn poison_looking_bits_are_ordinary_data_on_a_real_backend() {
        const BITS: u64 = 0xDEAD_BEEF_DEAD_BEEF;
        let l: SoftList<u64, u64, Soft<Clwb>> = SoftList::new();
        assert!(l.insert(BITS, BITS));
        assert!(l.insert(1, 10));
        l.recover_soft();
        assert_eq!(l.get(BITS), Some(BITS), "recovery dropped poison-shaped data");
        assert_eq!(l.get(1), Some(10));
        assert_eq!(l.check_consistency(false).unwrap(), 2);
    }

    /// A sealed open reads no node header, so SOFT resumes its `seq`
    /// counter from the lease in the head: every `seq` issued after the
    /// open exceeds every `seq` issued before the close, over two cycles.
    #[test]
    fn a_sealed_open_resumes_seq_past_every_generation() {
        use nvtraverse::TypedRoots;
        use nvtraverse_pmem::MmapBackend;
        type L = SoftList<u64, u64, Soft<MmapBackend>>;
        let path = std::env::temp_dir().join(format!("nvt-soft-lease-{}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // The `seq` of every linked node whose key is in `keys`.
        let seqs = |list: &L, keys: std::ops::Range<u64>| {
            let mut out = Vec::new();
            chain::walk::<_, ()>(list.head, |n, _| {
                // SAFETY: quiescent; `n` is a linked node.
                let (key, seq) = unsafe { ((*n).key.peek_bits(), (*n).seq.peek_bits()) };
                if keys.contains(&key) {
                    out.push(seq);
                }
                ControlFlow::Continue(())
            });
            out
        };
        let mut issued = {
            let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
            let list = pool.create_root::<L>("s").unwrap();
            for k in 0..300u64 {
                assert!(list.insert(k, k));
            }
            for k in (0..300u64).step_by(3) {
                assert!(list.remove(k));
            }
            let issued = list.next_seq.load(Ordering::Relaxed);
            list.close().unwrap();
            issued
        };
        for round in 1..=2u64 {
            let pool = Pool::builder().path(&path).open().unwrap();
            assert!(pool.recovery_report().sealed, "round {round}");
            let list = pool.root::<L>("s").unwrap();
            let keys = 1000 * round..1000 * round + 300;
            for k in keys.clone() {
                assert!(list.insert(k, k));
            }
            let fresh = seqs(&list, keys);
            assert_eq!(fresh.len(), 300);
            assert!(fresh.iter().all(|&seq| seq >= issued), "round {round}: a seq below {issued} was issued again");
            issued = list.next_seq.load(Ordering::Relaxed);
            list.close().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }
}
