//! A lock-free skiplist whose *bottom level is the persistent core tree* and
//! whose towers are volatile shortcuts — the paper's showcase for Property 2:
//!
//! > "a skiplist can be a traversal data structure, since, while the entire
//! > structure is not a tree, only a linked list at the bottom level holds
//! > all the data in the skiplist, while the rest of the nodes and edges
//! > simply serve as a way to access the linked list faster."
//!
//! Consequences of that split:
//!
//! * Bottom-level `next` words go through the [`Durability`] policy (the
//!   paper's flushes); tower words use **raw** cell operations — they are
//!   never flushed under any policy, because recovery can recompute them
//!   from the bottom list (see "Recovery-rebuild contract" below).
//! * `findEntry` descends the towers (it may snip marked tower links — the
//!   auxiliary structure is not subject to the traverse method's no-write
//!   rule), returning a bottom-level entry node; `traverse` is then exactly
//!   Harris's bottom walk: the bottom level *is* the crate's shared Harris
//!   chain (`chain.rs`), entered from the shortcut. The skiplist keeps the
//!   tower layout, the towers' marking and threading, and a retire that
//!   waits for both.
//! * `ensureReachable` uses Supplement 2's *original parent* field: the
//!   entry shortcut means the traversal may not know the current parent of
//!   its first returned node, so each node records the address of the
//!   pointer that first linked it into the bottom list.
//! * A node is exactly its tower: four fixed words, then `height` links —
//!   no slot is reserved for a level the node does not have.
//!
//! The algorithm follows the lock-free skiplist lineage the paper cites
//! (Michael / Fraser / Herlihy et al.). Every update is O(log n) expected.
//!
//! # Node layout
//!
//! ```text
//!  word:  0     1       2                       3            4 .. 4+height
//!       +-----+-------+-----------------------+------------+-------------------+
//!       | key | value | meta                  | link_state | next[0..height]   |
//!       +-----+-------+-----------------------+------------+-------------------+
//!                     | 63..56: height        |  volatile    next[0] durable,
//!                     | 55..0:  orig. parent  |              next[1..] volatile
//! ```
//!
//! A node of height `h` is `32 + 8h` bytes, allocated and freed at exactly
//! that size (the free path reads `h` back from `meta`). `meta` is
//! immutable; a user-space address fits in 56 bits, so the height rides in
//! its top byte. In a pool, whose blocks are powers of two with a 16-byte
//! header, the geometric height draw lands as:
//!
//! | height | node bytes | pool block | share of nodes |
//! |---|---|---|---|
//! | 1–2   | 40–48   | 64  | 3/4 |
//! | 3–10  | 56–112  | 128 | ≈ 1/4 |
//! | 11–16 | 120–160 | 256 | 1/1 024 |
//!
//! — about 80 B per key, and a 64-byte node shares one cache line with its
//! block header. The head sentinel has [`MAX_HEIGHT`] levels; its value
//! word, never read as a value, holds the layout tag `"SKIPv003"`. A pool
//! whose skiplist head carries any other tag was written under another
//! node layout: its GC tracer refuses it (nothing is swept) and attaching
//! returns `None`.
//!
//! # Deletion
//!
//! 1. **Mark the bottom link** with the policy's CAS — the linearization
//!    and persistence point; everything after it is volatile cleanup that
//!    recovery would redo.
//! 2. **Mark the tower words top-down** (raw CASes). A marked word is
//!    frozen: walks snip the node instead of stepping onto it, and nobody
//!    stores over a mark — the inserter included, which updates its own
//!    tower words with a CAS that refuses a marked value and stops
//!    threading when it meets one.
//! 3. **One cleaning descent** ([`SkipList`]'s `unlink_and_retire`): the
//!    same `findEntry` descent searches use, which snips marked successors
//!    at every level on its way down; each tower level is then finished
//!    from that descent's predecessor through the run of equal keys (a
//!    re-inserted same-key node is linked in front of the victim), and the
//!    bottom level is checked — and trimmed if need be — from the
//!    descent's entry node. A successful remove is two descents in total.
//! 4. **Two-party retire.** A remove may catch a node whose inserter is
//!    still threading its tower, and a link landing after the cleaning
//!    descent would leave a retired node reachable. Each node taller than
//!    1 therefore carries a volatile `link_state` word that each party
//!    CASes away from `THREADING` once — the inserter to `LINKED` when it
//!    has written its last link, the deleter to `MARKED` when every level
//!    is marked — and whoever finds the other already there runs the
//!    cleaning descent and retires, so the node is retired only once it is
//!    unreachable for good. Recovery resets the word to `LINKED` (no
//!    inserter survives a crash).
//!
//! # Recovery-rebuild contract
//!
//! The recovered state is a function of the bottom list alone: every
//! marked bottom node disconnected and retired, every live node's
//! `link_state` at `LINKED`, and each tower level linking, in bottom
//! order, exactly the live nodes tall enough for it, ending in null. The
//! open's trace is the GC's mark of the bottom list alone; after a crash,
//! [`SkipList::recover_skiplist`] builds that state in one walk that
//! disconnects the marked runs and threads the towers, storing each word
//! only where it differs. A clean close seals the pool, and a sealed open
//! runs neither: the towers are as the last operation left them. Every
//! attach seeds the height source past the blocks the pool holds, so a
//! reopened list draws on from its population instead of redrawing the
//! first session's heights.

use crate::chain::{self, ChainNode, Window};
use nvtraverse::alloc::{free_bytes, try_alloc_bytes, PoolCtx};
use nvtraverse::detect::OpError;
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{persist_window, run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{sim, Backend, PCell, Word};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::mem::offset_of;
use std::ptr::{addr_of, addr_of_mut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tower height cap: supports the evaluated sizes (≤ a few million keys).
pub const MAX_HEIGHT: usize = 16;

/// `meta` keeps the height in bits 63..56 and the original parent below.
const HEIGHT_SHIFT: u32 = 56;

/// The head sentinel's value word in a skiplist of this node layout. Heads
/// written under an earlier layout hold 0 there, so they are refused.
const LAYOUT_TAG: u64 = u64::from_le_bytes(*b"SKIPv003");

/// One skiplist node, allocated at exactly `32 + 8 * height` bytes (see the
/// module's "Node layout"). `key`, `value` and `meta` are immutable;
/// `next[0]` is the persistent bottom link; `next[1..height]` are volatile
/// tower links and `link_state` is the volatile retire handshake.
///
/// `next` is declared empty: the tower is the trailing `height` words the
/// allocation really has, reached through `link`. The size is read back
/// from `meta` when the node is freed.
#[repr(C)]
pub struct SkipNode<K: Word, V: Word, B: Backend> {
    key: PCell<K, B>,
    value: PCell<V, B>,
    /// Immutable: the tower height in `1..=MAX_HEIGHT` (top byte) and,
    /// Supplement 2, the address of the bottom link that first connected
    /// us (low 56 bits). Read through `height_of` and `parent_of`.
    meta: PCell<u64, B>,
    /// Volatile retire handshake of a node taller than 1: it leaves
    /// [`THREADING`] for [`LINKED`] when its inserter stops threading the
    /// tower, or for [`MARKED`] when its deleter has marked every level —
    /// whichever happens first; the party that comes second unlinks and
    /// retires the node. Never flushed; recovery stores [`LINKED`].
    link_state: PCell<u64, B>,
    /// `next[0]` persistent; higher levels volatile (never flushed).
    next: [Link<K, V, B>; 0],
}

/// `link_state`: the inserter is still threading the tower (and no deleter
/// has finished marking it).
const THREADING: u64 = 0;
/// `link_state`: the inserter will write no further tower link.
const LINKED: u64 = 1;
/// `link_state`: the deleter marked every level before the inserter was done.
const MARKED: u64 = 2;

impl<K: Word, V: Word, B: Backend> SkipNode<K, V, B> {
    /// Bytes of a node of `height`: the four fixed words, then the tower.
    const fn size(height: usize) -> usize {
        std::mem::size_of::<Self>() + height * std::mem::size_of::<Link<K, V, B>>()
    }
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SkipNode<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipNode").field("meta", &self.meta).finish()
    }
}

/// The tower height packed in a `meta` word.
const fn height_of(meta: u64) -> usize {
    (meta >> HEIGHT_SHIFT) as usize
}

/// The original-parent address packed in a `meta` word.
const fn parent_of(meta: u64) -> u64 {
    meta & ((1 << HEIGHT_SHIFT) - 1)
}

type NodePtr<K, V, B> = *mut SkipNode<K, V, B>;
/// One tower-link word (bottom level persistent, upper levels volatile).
type Link<K, V, B> = PCell<MarkedPtr<SkipNode<K, V, B>>, B>;
/// The tower predecessors `findEntry` computed, per level (volatile
/// shortcuts; level 0 unused).
type Preds<K, V, B> = [NodePtr<K, V, B>; MAX_HEIGHT];

/// `node`'s tower word at `level`.
///
/// # Safety
///
/// `node` must be live (for `'a`) and taller than `level`.
#[inline]
unsafe fn link<'a, K: Word, V: Word, B: Backend>(
    node: NodePtr<K, V, B>,
    level: usize,
) -> &'a Link<K, V, B> {
    // SAFETY: the node's allocation ends after its `height` tower words.
    unsafe { &*addr_of!((*node).next).cast::<Link<K, V, B>>().add(level) }
}

// SAFETY: `key` and `value` are fixed words of the node, written once
// before it is linked; the chain link is the bottom tower word `next[0]`,
// which every node has.
unsafe impl<K: Word, V: Word, B: Backend> ChainNode for SkipNode<K, V, B> {
    type K = K;
    type V = V;
    type B = B;
    const KEY: usize = offset_of!(Self, key);
    const VALUE: usize = offset_of!(Self, value);
    const NEXT: usize = offset_of!(Self, next);
}

/// Returns a node to its heap at the size it was allocated with, read back
/// from its `meta` word — the one free path, both for teardown and (as the
/// function [`Guard::retire_with`] calls) for EBR reclamation. A node whose
/// `meta` is poison (an unrecovered simulated crash) leaks: its size is
/// unknowable.
///
/// # Safety
///
/// As for [`free_bytes`]: `node` came from `alloc_tower`, is unreachable,
/// and is freed once.
unsafe fn free_tower<K: Word, V: Word, B: Backend>(node: *mut u8) {
    // SAFETY: live per the contract; `meta` is a fixed word of every node.
    // nvt-lint: allow(raw-pcell-access): the immutable meta word, read raw so teardown after an unrecovered crash cannot trip the poison check
    let meta = unsafe { (*node.cast::<SkipNode<K, V, B>>()).meta.peek_bits() };
    if meta != nvtraverse_pmem::POISON {
        let size = SkipNode::<K, V, B>::size(height_of(meta));
        // SAFETY: `alloc_tower` allocated the node at exactly this layout.
        unsafe { free_bytes(node, size, std::mem::align_of::<SkipNode<K, V, B>>()) };
    }
}

/// Whether `head`'s value word holds [`LAYOUT_TAG`]: the head sentinel of a
/// skiplist written under this node layout: a stored signature compared
/// with the expected one before anything else in the pool is trusted.
///
/// # Safety
///
/// `head` must point to at least two readable, quiescent words.
unsafe fn has_layout_tag<K: Word, V: Word, B: Backend>(head: NodePtr<K, V, B>) -> bool {
    // SAFETY: per the contract.
    // nvt-lint: allow(raw-pcell-access): the head's value word is a layout stamp, read as raw bits
    unsafe { (*head).value.peek_bits() == LAYOUT_TAG }
}

/// A lock-free skiplist map, parameterized by durability policy.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::skiplist::SkipList;
///
/// let s: SkipList<u64, u64, NvTraverse<Clwb>> = SkipList::new();
/// assert!(s.insert(9, 90));
/// assert_eq!(s.get(9), Some(90));
/// ```
pub struct SkipList<K: Word, V: Word, D: Durability> {
    head: NodePtr<K, V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from — its own pool for a
    /// pooled instance, the volatile heap otherwise. Captured at
    /// construction (from the enclosing allocation scope) and re-entered
    /// around every allocating operation, so concurrent structures in
    /// different pools allocate from the right files.
    ctx: PoolCtx,
    /// Deterministic height source (split-mix of a counter), so crash tests
    /// replay identically.
    height_seq: AtomicU64,
    _marker: PhantomData<fn() -> D>,
}

// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Send for SkipList<K, V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Sync for SkipList<K, V, D> {}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<K, V, D> SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty skiplist retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        // Sentinel key, never read; the value word carries the layout tag.
        // Only the persistent part of the head needs to survive: flushing
        // the whole node is harmless and simplest.
        let head =
            Self::alloc_tower(K::from_bits(0), LAYOUT_TAG, MAX_HEIGHT, 0, MarkedPtr::null(), LINKED)
                .expect("persistent pool exhausted while allocating the skiplist head");
        D::before_return();
        // SAFETY: a fresh head, owned by this handle alone; it has no tower
        // for a recovery to rebuild.
        unsafe { Self::attach_at(head, collector, 1) }
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Allocates a node of `height` at exactly its size, from the current
    /// allocation target, and persists it (flush, no fence). `value_bits` is
    /// the value word's raw content (the head's is [`LAYOUT_TAG`]).
    ///
    /// Also declares the node's `link_state` word and upper tower links
    /// (`next[1..height]`) volatile by design to any vet observer: only
    /// `next[0]` is part of the durable list, recovery rebuilds the rest.
    ///
    /// `None` when the targeted persistent pool is exhausted (see
    /// `nvtraverse::alloc::try_alloc_bytes`).
    fn alloc_tower(
        key: K,
        value_bits: u64,
        height: usize,
        orig_parent: u64,
        bottom: MarkedPtr<SkipNode<K, V, D::B>>,
        link_state: u64,
    ) -> Option<NodePtr<K, V, D::B>> {
        debug_assert!((1..=MAX_HEIGHT).contains(&height));
        // The free path trusts the height it reads back from `meta`.
        assert_eq!(parent_of(orig_parent), orig_parent, "a link address above 56 bits");
        let size = SkipNode::<K, V, D::B>::size(height);
        let node = try_alloc_bytes::<D::B>(size, std::mem::align_of::<SkipNode<K, V, D::B>>())?
            .cast::<SkipNode<K, V, D::B>>();
        let meta = ((height as u64) << HEIGHT_SHIFT) | orig_parent;
        // SAFETY: `node` is a fresh, suitably aligned block of `size` bytes
        // that nothing else can see yet; every word is written once.
        unsafe {
            addr_of_mut!((*node).key).write(PCell::new(key));
            addr_of_mut!((*node).value).cast::<PCell<u64, D::B>>().write(PCell::new(value_bits));
            addr_of_mut!((*node).meta).write(PCell::new(meta));
            addr_of_mut!((*node).link_state).write(PCell::new(link_state));
            let tower = addr_of_mut!((*node).next).cast::<Link<K, V, D::B>>();
            tower.write(PCell::new(bottom));
            for level in 1..height {
                tower.add(level).write(PCell::new(MarkedPtr::null()));
            }
            sim::current_mark_volatile_range((*node).link_state.addr() as usize, 8);
            sim::current_mark_volatile_range(tower.add(1) as usize, (height - 1) * 8);
        }
        D::persist_new_node(node as *const u8, size);
        Some(node)
    }

    /// Rebuilds a skiplist handle around an existing head tower — the attach
    /// half of the pool lifecycle — whose height source starts at
    /// `first_draw`. After a crash the caller must run
    /// [`SkipList::recover_skiplist`] before any operation: the persisted
    /// tower words may be stale (they are volatile shortcuts that happen to
    /// live in pool memory).
    ///
    /// # Safety
    ///
    /// `head` must be the head tower of a skiplist built with the *same*
    /// `K`/`V`/`D` parameters, reachable and quiescent, and the caller must
    /// not drop two handles to the same `Box`-backed structure (a pooled
    /// handle's drop frees no node — see `nvtraverse::PooledHandle`).
    pub(crate) unsafe fn attach_at(head: NodePtr<K, V, D::B>, collector: Collector, first_draw: u64) -> Self {
        SkipList {
            head,
            collector,
            ctx: PoolCtx::current(),
            height_seq: AtomicU64::new(first_draw),
            _marker: PhantomData,
        }
    }

    /// Geometric(1/2) tower height in `1..=MAX_HEIGHT`, deterministic in the
    /// number of prior calls.
    fn next_height(&self) -> usize {
        let n = self.height_seq.fetch_add(1, Ordering::Relaxed);
        let bits = splitmix64(n);
        ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    #[inline]
    fn key_of(node: NodePtr<K, V, D::B>) -> K {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        D::load_fixed(unsafe { &(*node).key })
    }

    /// Auxiliary (volatile) walk of one tower level starting at `start`,
    /// snipping marked links on the way. Returns the rightmost node at
    /// `level` with key < `k`.
    fn aux_walk(&self, start: NodePtr<K, V, D::B>, level: usize, k: K) -> NodePtr<K, V, D::B> {
        self.aux_walk_while(start, level, |key| key < k)
    }

    /// [`Self::aux_walk`] continued through the run of nodes with key ==
    /// `k`: returns the rightmost node at `level` with key ≤ `k`. An
    /// unmarked result proves that no node with key ≤ `k` that was marked
    /// when the walk began is still reachable at `level` (see
    /// [`Self::unlink_and_retire`]).
    fn aux_walk_through(&self, start: NodePtr<K, V, D::B>, level: usize, k: K) -> NodePtr<K, V, D::B> {
        self.aux_walk_while(start, level, |key| key <= k)
    }

    /// The walk behind [`Self::aux_walk`] and [`Self::aux_walk_through`]:
    /// advances while `before(key of the successor)` holds and returns the
    /// node it stopped on.
    ///
    /// Tower accesses are raw — never routed through the policy — because
    /// the towers are recomputed on recovery (Property 2).
    fn aux_walk_while(
        &self,
        start: NodePtr<K, V, D::B>,
        level: usize,
        before: impl Fn(K) -> bool,
    ) -> NodePtr<K, V, D::B> {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let mut pred = start;
            loop {
                // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
                let mut w = link(pred, level).load();
                // A marked word means *pred itself* was deleted at this
                // level. Its tower word is frozen from here on: snipping
                // through it would CAS an **unmarked** successor word into
                // the dead node, un-marking it and re-exposing it at this
                // level — the ROADMAP's livelock (competing walks then
                // re-mark/re-snip the same tower word forever). Hand the
                // marked pred back; callers restart from a live start
                // point (ultimately the never-marked head).
                if w.is_marked() {
                    return pred;
                }
                // Snip marked successors (auxiliary maintenance).
                loop {
                    let curr = w.ptr();
                    if curr.is_null() {
                        return pred;
                    }
                    let cw = link(curr, level).load();
                    if cw.is_marked() {
                        // Bypass curr at this level.
                        match link(pred, level)
                            .compare_exchange(w, cw.without_mark().untagged())
                            // nvt-lint: end-allow(raw-pcell-access)
                        {
                            Ok(_) => w = cw.without_mark().untagged(),
                            Err(actual) => {
                                if actual.is_marked() {
                                    // pred itself got marked; restart higher.
                                    return pred;
                                }
                                w = actual;
                            }
                        }
                    } else {
                        break;
                    }
                }
                let curr = w.ptr();
                if curr.is_null() || !before(Self::key_of(curr)) {
                    return pred;
                }
                pred = curr;
            }
        }
    }

    /// Threads the freshly bottom-linked `node` into tower levels
    /// `1..height`, bottom-up, starting each level from the search's
    /// predecessor. Called once, by the node's inserter.
    ///
    /// A concurrent remove may mark the tower at any moment. The node's
    /// own word is therefore only ever updated with a CAS from the
    /// unmarked value read before — a marked word is frozen and ends the
    /// threading — and the closing [`LINKED`] handshake tells the deleter
    /// whether a link could still have landed after its marks: if the
    /// deleter got there first ([`MARKED`]), unlinking and retiring the
    /// node falls to us.
    fn link_tower(
        &self,
        guard: &Guard,
        node: NodePtr<K, V, D::B>,
        key: K,
        height: usize,
        preds: &[NodePtr<K, V, D::B>; MAX_HEIGHT],
    ) {
        // Indexes `preds` and the node's tower in lockstep; an iterator form obscures it.
        #[allow(clippy::needless_range_loop)]
        // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
        'levels: for level in 1..height {
            // The search's predecessor if below `key` (the head is −∞).
            let p = preds[level];
            let mut from = if p == self.head || Self::key_of(p) < key { p } else { self.head };
            loop {
                let pred = self.aux_walk(from, level, key);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let succ = unsafe { link(pred, level).load() };
                if succ.is_marked() {
                    // pred was deleted under us and its tower word is
                    // frozen: re-walking from it can never make progress.
                    // Restart the level from the never-marked head.
                    from = self.head;
                    continue;
                }
                #[cfg(test)]
                tests::pause(tests::Pause::BeforeOwnWord);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let own = unsafe { link(node, level) };
                let cur = own.load();
                if cur.is_marked() || own.compare_exchange(cur, succ.untagged()).is_err() {
                    // Only the deleter's mark competes for this word.
                    break 'levels;
                }
                #[cfg(test)]
                tests::pause(tests::Pause::BeforePredLink);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                if unsafe {
                    link(pred, level)
                        .compare_exchange(succ, MarkedPtr::new(node))
                        // nvt-lint: end-allow(raw-pcell-access)
                        .is_ok()
                } {
                    break;
                }
            }
        }
        if Self::arrives_second(node, LINKED) {
            self.unlink_and_retire(guard, node, key, height);
        }
    }

    /// One party's arrival at `node`'s retire handshake (`mine` is
    /// [`LINKED`] for the inserter, [`MARKED`] for the deleter): `true` if
    /// the other party got there first, which makes retiring the caller's
    /// job. The CAS is `AcqRel`, so the second arrival also sees everything
    /// the first wrote before announcing itself (tower links, or marks).
    fn arrives_second(node: NodePtr<K, V, D::B>, mine: u64) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let state = unsafe { &(*node).link_state };
        // nvt-lint: allow(raw-pcell-access): the retire handshake word is volatile by design (never flushed, recovery stores LINKED)
        state.compare_exchange(THREADING, mine).is_err()
    }

    /// Physically removes the logically deleted `node` (key `key`, tower
    /// height `height`) from every level, then retires it — one search descent, O(log n) expected.
    ///
    /// The caller arrived second at the handshake: `node` is marked at
    /// every level and its inserter writes no further link to it (a
    /// height-1 node has no tower to thread, hence no handshake).
    ///
    /// The descent is [`TraversalOps::find_entry`], whose walks already snip
    /// marked successors on the search path. Each tower level is then
    /// finished from that descent's predecessor with
    /// [`Self::aux_walk_through`], because a node re-inserted under the same
    /// key is linked *in front of* `node` and hides it from the `< key`
    /// walk. A predecessor that turned out marked is useless (its word is
    /// frozen): only then does the level restart from the never-marked
    /// head. The bottom level is checked with a traversal from the same
    /// descent's entry node and trimmed under Protocol 1 if `node` (or any
    /// other marked node) is still in the window.
    ///
    /// Why the retire is sound — `node` is off the head path at every
    /// level, for good:
    ///
    /// * *Off the path.* Per tower level the walk ended on an unmarked node
    ///   whose successor has a larger key. It started on a node that was
    ///   linked and unmarked — hence on the head path, in front of every
    ///   key-`key` node — and stepped only across links it read unmarked.
    ///   Nodes never swap order on a level, so had `node` still been on the
    ///   path, some step would have had to cross it; but the walk never
    ///   steps onto a marked node, it snips it. At the bottom, `left` →
    ///   `right` directly with `left` < `key` ≤ `right`, and no live
    ///   same-key node can precede a marked one there (an insert trims
    ///   before it links).
    /// * *For good.* A link to `node` is written only by its inserter,
    ///   which is done, or by a snip `pred: c → node` of a
    ///   marked `c` still linked from `pred` — that is, only while `node`
    ///   is on the path already. Marked words are frozen: nothing stores
    ///   over a mark any more.
    fn unlink_and_retire(
        &self,
        guard: &Guard,
        node: NodePtr<K, V, D::B>,
        key: K,
        height: usize,
    ) {
        let probe = SetOp::Get(key);
        let entry = self.find_entry(guard, probe);
        for level in (1..height).rev() {
            let mut from = entry.1[level];
            loop {
                let last = self.aux_walk_through(from, level, key);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                // nvt-lint: allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
                if !unsafe { link(last, level).load().is_marked() } {
                    break;
                }
                from = self.head;
            }
        }
        loop {
            let w = self.traverse(guard, entry, probe);
            if w.0.left_succ.ptr() == w.0.right {
                break;
            }
            // A critical-phase write on a fresh window: Protocol 1 first,
            // exactly as the driver does between `traverse` and `critical`.
            persist_window(self, &w);
            let _ = chain::trim::<_, D, fn(_)>(&w.0, None);
        }
        // SAFETY: `node` is off the head path at every level and cannot
        // return to it (argued in this function's doc comment), so only
        // threads pinned before this call can hold it — EBR's contract.
        unsafe { guard.retire_with(node.cast(), free_tower::<K, V, D::B>) };
    }

    /// Quiescent: the live `(key, value)` pairs in key order (the unmarked
    /// bottom list — the persistent core the towers merely accelerate).
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        chain::snapshot(self.head)
    }

    /// Quiescent: verifies bottom-list sortedness and tower reachability.
    ///
    /// # Errors
    ///
    /// Reports unsorted bottom keys, reachable bottom-marked nodes (when
    /// `allow_marked` is false), or a tower link pointing at a node that is
    /// not alive in the bottom list.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        let mut live = std::collections::HashSet::new();
        let count = chain::check(self.head, allow_marked, |n| {
            live.insert(n as usize);
            Ok(())
        })?;
        if allow_marked {
            return Ok(count);
        }
        // Towers must only reference live bottom nodes (after recovery).
        // SAFETY: quiescent (this method's contract); tower links name nodes of this skiplist.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            for level in 1..MAX_HEIGHT {
                let mut c = link(self.head, level).load().ptr();
                let mut prev_key: Option<K> = None;
                while !c.is_null() {
                    if !live.contains(&(c as usize)) {
                        return Err(format!("tower level {level} references dead node"));
                    }
                    let k = (*c).key.load();
                    if prev_key.is_some_and(|pk| pk >= k) {
                        return Err(format!("tower level {level} unsorted"));
                    }
                    prev_key = Some(k);
                    c = link(c, level).load().ptr();
                    // nvt-lint: end-allow(raw-pcell-access)
                }
            }
        }
        Ok(count)
    }

    /// Recovery (paper §4 + Property 2) in one walk of the bottom list: the
    /// chain's `disconnect` (Supplement 1) retires each run of marked nodes,
    /// and its live-node hook threads each live node into every volatile
    /// tower level it has, behind that level's last live node. Each tower
    /// and `link_state` word is compared (raw bits, so poison is just a
    /// mismatch) and stored only where it differs, so an image whose towers
    /// are mostly right dirties only the lines that change.
    pub fn recover_skiplist(&self) {
        if !D::DURABLE {
            return;
        }
        let guard = self.collector.pin();
        // SAFETY: recovery runs single-threaded on a quiescent structure; `node` is a live node of it, taller than `level`.
        let set = |node: NodePtr<K, V, D::B>, level: usize, want: MarkedPtr<SkipNode<K, V, D::B>>| unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): single-threaded recovery rebuilds volatile towers by design
            let word = link(node, level);
            if word.peek_bits() != want.to_bits() {
                word.store(want);
            }
        };
        let mut last: Preds<K, V, D::B> = [self.head; MAX_HEIGHT];
        chain::disconnect::<_, D>(
            self.head,
            // SAFETY: the run is disconnected for good, and its towers are never read again; EBR defers the free.
            |dead| unsafe { guard.retire_with(dead.cast(), free_tower::<K, V, D::B>) },
            |cur| {
                // SAFETY: as for `set`; `cur` is the next live node.
                unsafe {
                    // No inserter survives a crash: the handshake word
                    // restarts at LINKED (its persisted copy is stale or
                    // poison).
                    if (*cur).link_state.peek_bits() != LINKED {
                        (*cur).link_state.store(LINKED);
                    }
                    for (level, prev) in last.iter_mut().enumerate().take(height_of((*cur).meta.load())).skip(1) {
                        set(*prev, level, MarkedPtr::new(cur));
                        *prev = cur;
                    }
                }
            },
        );
        for (level, &prev) in last.iter().enumerate().skip(1) {
            set(prev, level, MarkedPtr::null());
            // nvt-lint: end-allow(raw-pcell-access)
        }
        D::before_return();
    }
}

impl<K, V, D> TraversalOps for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = SetOp<K, V>;
    type Output = Option<V>;
    /// Entry: bottom-level start node plus the tower predecessors.
    type Entry = (NodePtr<K, V, D::B>, Preds<K, V, D::B>);
    /// The bottom level's chain window, plus the tower predecessors for
    /// threading an inserted node's tower.
    type Window = (Window<SkipNode<K, V, D::B>>, Preds<K, V, D::B>);

    fn find_entry(&self, _guard: &Guard, input: Self::Input) -> Self::Entry {
        let (SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k)) = input;
        // Descend the volatile towers, snipping marked links: auxiliary
        // maintenance outside the core tree.
        let mut preds = [self.head; MAX_HEIGHT];
        let mut pred = self.head;
        for level in (1..MAX_HEIGHT).rev() {
            pred = self.aux_walk(pred, level, k);
            // A marked result means the walk's start (or end point) died
            // mid-descent; one retry from the never-marked head keeps the
            // shortcut useful. (A still-marked result is fine: `traverse`
            // falls back to the head for marked entry points.)
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            // nvt-lint: allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
            if unsafe { link(pred, level).load().is_marked() } {
                pred = self.aux_walk(self.head, level, k);
            }
            preds[level] = pred;
        }
        (pred, preds)
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let (SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k)) = input;
        // The chain's walk from the shortcut entry point; a shortcut that
        // landed on a node deleted meanwhile falls back to the head.
        let (start, preds) = entry;
        (chain::traverse::<_, D>(self.head, start, |key| key < k), preds)
    }

    fn collect_persist_set(&self, (w, _): &Self::Window, out: &mut PersistSet) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // Supplement 2: flush the original-parent location of `left`
            // (the entry shortcut hides left's current parent).
            let addr = parent_of(D::load_fixed(&(*w.left).meta));
            if addr != 0 {
                out.set_parent(addr as *const u8);
            }
            out.push(link(w.left, 0).addr());
            if !w.right.is_null() {
                out.push(link(w.right, 0).addr());
            }
        }
    }

    fn critical(
        &self,
        guard: &Guard,
        (w, preds): Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let left_link = unsafe { link(w.left, 0) };
        match input {
            SetOp::Get(key) => Critical::Done(w.hit::<D>(key).then(|| w.value::<D>())),
            SetOp::Insert(key, value) => {
                // Bottom-level trim, without a retire hook: each node's
                // *deleter* retires it, after unlinking its towers.
                if !chain::trim::<_, D, fn(_)>(&w, None) {
                    return Critical::Restart;
                }
                if w.hit::<D>(key) {
                    return Critical::Done(Some(w.value::<D>()));
                }
                let height = self.next_height();
                let right_word = MarkedPtr::new(w.right);
                let Some(node) = Self::alloc_tower(
                    key,
                    value.to_bits(),
                    height,
                    left_link.addr() as u64,
                    right_word,
                    if height > 1 { THREADING } else { LINKED },
                ) else {
                    // Pool exhausted: report "no effect" through the
                    // duplicate-shaped output (see `HarrisList::critical`).
                    return Critical::Done(Some(value));
                };
                match D::c_cas_link(left_link, right_word, MarkedPtr::new(node)) {
                    Ok(()) => {
                        // Bottom link is in (the linearization + persistence
                        // point). Now thread the volatile tower levels; a
                        // height-1 node has none, and no handshake to close.
                        if height > 1 {
                            self.link_tower(guard, node, key, height, &preds);
                        }
                        Critical::Done(None)
                    }
                    Err(_) => {
                        // SAFETY: the node was never published; it is ours alone.
                        unsafe { free_tower::<K, V, D::B>(node.cast()) };
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                // Bottom-level trim, without a retire hook: each node's
                // *deleter* retires it, after unlinking its towers.
                if !chain::trim::<_, D, fn(_)>(&w, None) {
                    return Critical::Restart;
                }
                if !w.hit::<D>(key) {
                    return Critical::Done(None);
                }
                let victim = w.right;
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let bottom = unsafe { link(victim, 0) };
                let r_next = D::c_load_link(bottom);
                if r_next.is_marked() {
                    return Critical::Restart;
                }
                match D::c_cas_link(bottom, r_next, r_next.with_mark()) {
                    Ok(()) => {
                        let value = w.value::<D>();
                        // Mark every tower level (volatile, raw CAS) so that
                        // aux walks snip us out.
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        let height = height_of(D::load_fixed(unsafe { &(*victim).meta }));
                        // nvt-lint: begin-allow(raw-pcell-access): volatile tower links (levels >= 1) are never flushed; towers are rebuilt on recovery
                        for level in (1..height).rev() {
                            loop {
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                let cw = unsafe { link(victim, level).load() };
                                if cw.is_marked() {
                                    break;
                                }
                                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                                if unsafe {
                                    link(victim, level)
                                        .compare_exchange(cw, cw.with_mark())
                                        // nvt-lint: end-allow(raw-pcell-access)
                                        .is_ok()
                                } {
                                    break;
                                }
                            }
                        }
                        // First try at the bottom unlink (policy CAS); the
                        // descent below verifies it and does the towers.
                        let _ = D::c_cas_link(left_link, MarkedPtr::new(victim), r_next);
                        // A tall victim whose inserter is still threading
                        // its tower is left to that inserter (it sees
                        // MARKED when it is done); otherwise retiring it
                        // is our job.
                        if height == 1 || Self::arrives_second(victim, MARKED) {
                            self.unlink_and_retire(guard, victim, key, height);
                        }
                        Critical::Done(Some(value))
                    }
                    Err(_) => Critical::Restart,
                }
            }
        }
    }
}

impl<K, V, D> DurableSet<K, V> for SkipList<K, V, D>
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
        self.recover_skiplist();
    }

    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        chain::allocating(&self.ctx, &self.collector, |guard| {
            run_operation(self, guard, SetOp::Insert(key, value)).is_none()
        })
    }
}

impl<K, V, D> PoolAttach for SkipList<K, V, D>
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
        let head = pool.attach_root_ptr::<SkipNode<K, V, D::B>>(name)?;
        // SAFETY: the tag is read only from an allocated block of this pool.
        if !pool.is_allocated_payload(pool.offset_of(head as *const u8))
            || unsafe { !has_layout_tag(head) }
        {
            return None;
        }
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // Past the blocks the pool holds: the list draws on from its
        // population, not from the first session's heights again.
        let first_draw = pool.recovery_report().live_blocks as u64 + 1;
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(head, pool.collector().clone(), first_draw) })
    }
}

// SAFETY: the persistent core is exactly the bottom list (`next[0]`), so
// the walk is the Harris-list chain from the head tower through marked
// nodes. Tower levels (`next[1..]`) are volatile shortcuts that may be
// stale after a crash: the trace never reads them, and `recover_skiplist`
// rebuilds them from the bottom list; every node they could name is on
// the bottom list. A head without this layout's tag was written under
// another node layout, where `next[0]` is another word: the tracer refuses
// it instead.
// SAFETY: the trace only reads; every store is `recover_attached`'s.
unsafe impl<K, V, D> nvtraverse::PoolTrace for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type Plan = ();

    // SAFETY: see `PoolTrace::trace` — `root` is a root this type created, on the quiescent, header-verified heap of `Pool::open` recovery.
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        let head = root as NodePtr<K, V, D::B>;
        // SAFETY: `capacity_of` vouches for `root` as an allocated payload; the heap is quiescent.
        if marker.capacity_of(root).is_none() || unsafe { !has_layout_tag(head) } {
            marker.refuse();
            return;
        }
        // SAFETY: `trace_chains` hands over only nodes `Marker::mark` vouched for, on a quiescent heap.
        unsafe {
            // nvt-lint: allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
            crate::trace_chains(marker, &mut [head], |_, n| link(n, 0).load().ptr());
        }
    }

    fn recover_attached(&self, (): ()) {
        self.recover_skiplist();
    }
}

impl<K, V, D> Default for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for SkipList<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .finish()
    }
}

impl<K: Word, V: Word, D: Durability> Drop for SkipList<K, V, D> {
    fn drop(&mut self) {
        // A pooled skiplist's nodes belong to the pool: drop only the shell.
        if self.ctx.is_pooled() {
            return;
        }
        // SAFETY: exclusive access — no other thread can reach these nodes.
        chain::teardown(self.head, |n| unsafe { free_tower::<K, V, D::B>(n.cast()) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Volatile};
    use nvtraverse_pmem::{Clwb, MmapBackend, Noop, Sim, SimHandle};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The two points of `link_tower` where a concurrent remove can slip
    /// between the inserter's reads and its writes.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(super) enum Pause {
        /// After reading the predecessor's word, before the node's own
        /// tower word is written.
        BeforeOwnWord,
        /// After the node's own tower word is written, before the
        /// predecessor is swung to the node.
        BeforePredLink,
    }

    type Hook = (Pause, Box<dyn FnOnce()>);

    thread_local! {
        /// One-shot interleaving hook: runs on this thread the next time
        /// `link_tower` reaches the given point.
        static PAUSE: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    pub(super) fn pause(at: Pause) {
        let armed = PAUSE.with(|p| {
            let mut p = p.borrow_mut();
            match &*p {
                Some((point, _)) if *point == at => p.take(),
                _ => None,
            }
        });
        if let Some((_, run)) = armed {
            run();
        }
    }

    fn smoke<D: Durability>() {
        let s: SkipList<u64, u64, D> = SkipList::new();
        assert!(s.is_empty());
        assert!(s.insert(5, 50));
        assert!(s.insert(1, 10));
        assert!(s.insert(9, 90));
        assert!(!s.insert(5, 99));
        assert_eq!(s.get(5), Some(50));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.get(5), None);
        assert_eq!(s.len(), 2);
        s.check_consistency(false).unwrap();
    }

    #[test]
    fn volatile_semantics() {
        smoke::<Volatile>();
    }

    #[test]
    fn nvtraverse_semantics() {
        smoke::<NvTraverse<Clwb>>();
    }

    #[test]
    fn izraelevitz_semantics() {
        smoke::<Izraelevitz<Clwb>>();
    }

    #[test]
    fn link_persist_semantics() {
        smoke::<LinkPersist<Clwb>>();
    }

    #[test]
    fn towers_accelerate_and_stay_consistent() {
        let s: SkipList<u64, u64, Volatile> = SkipList::new();
        for k in 0..2000u64 {
            assert!(s.insert(k, k));
        }
        assert_eq!(s.check_consistency(false).unwrap(), 2000);
        // Some node must be taller than 1 (probability astronomically high).
        unsafe {
            assert!(
                !link(s.head, 1).load().is_null(),
                "towers were never built"
            );
        }
        for k in 0..2000u64 {
            assert_eq!(s.get(k), Some(k));
        }
    }

    #[test]
    fn matches_model_on_random_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let s: SkipList<u64, u64, NvTraverse<Noop>> = SkipList::new();
        let mut model = ModelSet::new();
        for i in 0..4000u64 {
            let k = rng.random_range(0..128);
            match rng.random_range(0..3) {
                0 => assert_eq!(s.insert(k, i), model.insert(k, i), "insert({k})"),
                1 => assert_eq!(s.remove(k), model.remove(k), "remove({k})"),
                _ => assert_eq!(s.get(k), model.get(k), "get({k})"),
            }
        }
        let got = s.iter_snapshot();
        let want: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(got, want);
        s.check_consistency(false).unwrap();
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let s: SkipList<u64, u64, NvTraverse<Clwb>> = SkipList::new();
        std::thread::scope(|sc| {
            for tid in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    let base = tid * 500;
                    for k in base..base + 500 {
                        assert!(s.insert(k, k));
                    }
                    for k in (base..base + 500).step_by(2) {
                        assert!(s.remove(k));
                    }
                });
            }
        });
        assert_eq!(s.check_consistency(false).unwrap(), 1000);
    }

    #[test]
    fn concurrent_contended_stress() {
        use rand::prelude::*;
        let s: SkipList<u64, u64, NvTraverse<Clwb>> = SkipList::new();
        std::thread::scope(|sc| {
            for tid in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(tid);
                    for _ in 0..2000 {
                        let k = rng.random_range(0..64);
                        match rng.random_range(0..10) {
                            0..=3 => {
                                s.insert(k, k);
                            }
                            4..=6 => {
                                s.remove(k);
                            }
                            _ => {
                                s.get(k);
                            }
                        }
                    }
                });
            }
        });
        s.check_consistency(false).unwrap();
    }

    #[test]
    fn recovery_rebuilds_towers_from_bottom() {
        let s: SkipList<u64, u64, NvTraverse<Noop>> = SkipList::new();
        for k in 0..500u64 {
            s.insert(k, k);
        }
        // Wreck the towers (simulating their loss in a crash).
        unsafe {
            for level in 1..MAX_HEIGHT {
                link(s.head, level).store(MarkedPtr::null());
            }
        }
        s.recover();
        assert_eq!(s.check_consistency(false).unwrap(), 500);
        for k in 0..500u64 {
            assert_eq!(s.get(k), Some(k), "get({k}) after tower rebuild");
        }
        assert!(s.insert(1000, 1), "usable after recovery");
    }

    #[test]
    fn recovery_trims_bottom_marked_nodes() {
        let s: SkipList<u64, u64, NvTraverse<Noop>> = SkipList::new();
        for k in 0..10u64 {
            s.insert(k, k);
        }
        unsafe {
            // Mark key 4's bottom link by hand (crash mid-delete).
            let mut cur = link(s.head, 0).load().ptr();
            while !cur.is_null() && (*cur).key.load() != 4 {
                cur = link(cur, 0).load().ptr();
            }
            let nw = link(cur, 0).load();
            link(cur, 0).store(nw.with_mark());
        }
        s.recover();
        assert_eq!(s.get(4), None);
        assert_eq!(s.check_consistency(false).unwrap(), 9);
    }

    /// The tower-link/remove race, interleaved deterministically: a remove
    /// of key `k` runs to completion *inside* the insert of `k`, at one of
    /// `link_tower`'s two windows. Before the handshake the inserter either
    /// overwrote the deleter's tower mark with its raw store
    /// (`BeforeOwnWord`) or linked the already-retired node
    /// (`BeforePredLink`); both left "tower level 1 references dead node".
    fn remove_inside_tower_threading(at: Pause) {
        let s: Rc<SkipList<u64, u64, Volatile>> = Rc::new(SkipList::new());
        for k in (0..128u64).step_by(2) {
            assert!(s.insert(k, k));
        }
        let mut raced = 0;
        for k in (1..128u64).step_by(2) {
            let s2 = Rc::clone(&s);
            let remove: Hook = (
                at,
                Box::new(move || assert!(s2.remove(k), "the bottom link is in: remove must win")),
            );
            PAUSE.with(|p| *p.borrow_mut() = Some(remove));
            assert!(s.insert(k, k));
            // Still armed means a height-1 draw (no tower to thread):
            // disarm and move on.
            if PAUSE.with(|p| p.borrow_mut().take()).is_none() {
                raced += 1;
                // Checked at once: any later walk past the node would
                // snip a marked link and hide a retire that came too soon.
                s.check_consistency(false).unwrap();
                assert_eq!(s.get(k), None);
            } else {
                assert!(s.remove(k));
            }
        }
        assert!(raced >= 16, "only {raced} inserts drew a tower");
        assert_eq!(s.check_consistency(false).unwrap(), 64);
        // Second pass once every retired node has really been freed: a
        // link left to one of them would now read reclaimed memory.
        s.collector().drain();
        assert_eq!(s.check_consistency(false).unwrap(), 64);
        for k in 0..128u64 {
            assert_eq!(s.get(k), (k % 2 == 0).then_some(k));
        }
    }

    #[test]
    fn remove_before_own_tower_word_is_written() {
        remove_inside_tower_threading(Pause::BeforeOwnWord);
    }

    #[test]
    fn remove_before_predecessor_is_swung() {
        remove_inside_tower_threading(Pause::BeforePredLink);
    }

    /// The race's habitat under real threads: every thread inserts *and*
    /// removes the same handful of keys, so removes keep landing on nodes
    /// whose inserter is still threading the tower.
    #[test]
    fn churn_same_keys_leaves_no_dead_tower_link() {
        let s: SkipList<u64, u64, NvTraverse<Clwb>> = SkipList::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|sc| {
            for tid in 0..4u64 {
                let (s, start) = (&s, &start);
                sc.spawn(move || {
                    start.wait();
                    for i in 0..20_000u64 {
                        let k = (i * 5 + tid) % 8;
                        if (i + tid) % 2 == 0 {
                            s.insert(k, i);
                        } else {
                            s.remove(k);
                        }
                    }
                });
            }
        });
        s.check_consistency(false).unwrap();
        s.collector().drain();
        let live = s.check_consistency(false).unwrap();
        assert_eq!(live, (0..8u64).filter(|&k| s.get(k).is_some()).count());
    }

    /// Keys of the live nodes taller than 1, ascending (quiescent).
    fn tall_keys<D: Durability>(s: &SkipList<u64, u64, D>) -> Vec<u64> {
        let mut out = Vec::new();
        unsafe {
            let mut cur = link(s.head, 0).load().ptr();
            while !cur.is_null() {
                if height_of((*cur).meta.load()) > 1 {
                    out.push((*cur).key.load());
                }
                cur = link(cur, 0).load().ptr();
            }
        }
        out
    }

    /// Complexity pin without a clock: `Sim::steps()` counts every cell
    /// access, flush and fence. Removing a node taller than 1 must cost
    /// O(log n) of them — two descents — not a walk along each of its
    /// levels from the head. With n = 2^12 the parent commit (one
    /// `aux_walk` from the head per tower level) measured 4 311 steps per
    /// tall remove; this code measures 175.
    #[test]
    fn tall_remove_costs_logarithmic_steps() {
        const N: u64 = 1 << 12;
        let sim = SimHandle::new();
        let _g = sim.enter();
        let s: SkipList<u64, u64, NvTraverse<Sim>> = SkipList::new();
        // A fixed permutation, so no level degenerates into insert order.
        for i in 0..N {
            assert!(s.insert(i * 2_654_435_761 % N, i));
        }
        let tall = tall_keys(&s);
        assert!(tall.len() as u64 > N / 4, "degenerate height draw");
        let before = sim.steps();
        // Largest key first: the towers in front of each victim are still
        // standing, so the search itself stays logarithmic to the end.
        for &k in tall.iter().rev() {
            assert!(s.remove(k));
        }
        let per_remove = (sim.steps() - before) / tall.len() as u64;
        let bound = 30 * N.ilog2() as u64;
        assert!(
            per_remove <= bound,
            "{per_remove} steps per tall remove (bound {bound}): removes walk levels again"
        );
        s.check_consistency(false).unwrap();
    }

    /// Livelock hunt (the ROADMAP open item this PR hardens against): loop
    /// the contended concurrent workload, each iteration under a fail-fast
    /// watchdog. A healthy iteration finishes in well under a second even
    /// on the 1-core CI box; a livelocked one trips the 60 s budget
    /// immediately instead of hanging the suite for 20+ minutes.
    ///
    /// Ignored by default (it is a soak, not a unit test). Run with e.g.
    /// `NVT_STRESS_ITERS=500 cargo test --release -p nvtraverse-structures \
    ///  -- --ignored stress_contended_no_livelock --nocapture`.
    #[test]
    #[ignore = "soak test: set NVT_STRESS_ITERS and run with --ignored"]
    fn stress_contended_no_livelock() {
        use rand::prelude::*;
        let iters: usize = std::env::var("NVT_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        for i in 0..iters {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let s: SkipList<u64, u64, NvTraverse<Clwb>> = SkipList::new();
                std::thread::scope(|sc| {
                    for tid in 0..4u64 {
                        let s = &s;
                        sc.spawn(move || {
                            // Tiny key range + delete-heavy mix: maximizes
                            // marked-tower traffic, the livelock's habitat.
                            let mut rng =
                                rand::rngs::StdRng::seed_from_u64(tid * 7919 + i as u64);
                            for _ in 0..2000 {
                                let k = rng.random_range(0..32);
                                match rng.random_range(0..10) {
                                    0..=4 => {
                                        s.insert(k, k);
                                    }
                                    5..=8 => {
                                        s.remove(k);
                                    }
                                    _ => {
                                        s.get(k);
                                    }
                                }
                            }
                        });
                    }
                });
                s.check_consistency(false).unwrap();
                let _ = tx.send(());
            });
            if rx.recv_timeout(std::time::Duration::from_secs(60)).is_err() {
                // Fail fast, leaving the stuck iteration's threads behind:
                // the hang itself is the finding.
                panic!("livelock: stress iteration {i} exceeded its 60 s budget");
            }
            if i % 10 == 9 {
                eprintln!("stress: {}/{} iterations clean", i + 1, iters);
            }
        }
    }

    type Pooled = SkipList<u64, u64, NvTraverse<MmapBackend>>;

    /// A fresh pool file path for `tag`, private to this process.
    fn pool_path(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("nvt-skiplist-{tag}-{}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Every height's node is exactly `32 + 8h` bytes and lands in the
    /// smallest pool block that holds it next to the 16-byte header.
    #[test]
    fn node_sizes_match_the_pool_blocks() {
        let path = pool_path("sizes");
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let _scope = PoolCtx::of(&pool).enter();
        for h in 1..=MAX_HEIGHT {
            assert_eq!(SkipNode::<u64, u64, MmapBackend>::size(h), 32 + 8 * h);
            let node = Pooled::alloc_tower(7, 70, h, 0, MarkedPtr::null(), LINKED).unwrap();
            let block = (16 + 32 + 8 * h).next_power_of_two() as u64;
            assert_eq!(pool.usable_size(node as *const u8), block - 16, "height {h}");
            // SAFETY: never published.
            unsafe { free_tower::<u64, u64, MmapBackend>(node.cast()) };
        }
        assert!(pool.live_offsets().is_empty(), "a free missed its block");
        drop(_scope);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// The sized nodes' payoff, counted the way `bytes_per_key` is: heap
    /// bytes after a reopen over the keys found.
    #[test]
    fn pooled_list_costs_at_most_82_bytes_per_key() {
        use nvtraverse::TypedRoots;
        const N: u64 = 1 << 15;
        let path = pool_path("bytes-per-key");
        {
            let pool = Pool::builder().path(&path).capacity(8 << 20).create().unwrap();
            let s = pool.create_root::<Pooled>("skip").unwrap();
            for i in 0..N {
                assert!(s.insert(i * 2_654_435_761 % N, i));
            }
            s.close().unwrap();
        }
        let pool = Pool::builder().path(&path).open().unwrap();
        let s = pool.root::<Pooled>("skip").unwrap();
        assert_eq!(s.len() as u64, N);
        let per_key = pool.recovery_report().heap_bytes as f64 / N as f64;
        assert!(per_key <= 82.0, "{per_key:.2} heap bytes per key");
        s.close().unwrap();
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// The bottom list's nodes in order, marked or not (quiescent).
    fn chain<D: Durability>(s: &SkipList<u64, u64, D>) -> Vec<NodePtr<u64, u64, D::B>> {
        let mut out = Vec::new();
        unsafe {
            let mut cur = link(s.head, 0).load().ptr();
            while !cur.is_null() {
                out.push(cur);
                cur = link(cur, 0).load().ptr();
            }
        }
        out
    }

    /// What a recovery leaves behind: the live pairs, each tower level's
    /// keys, the nodes it retired and the height source.
    type Outcome = (Vec<(u64, u64)>, Vec<Vec<u64>>, usize, u64);

    fn outcome<D: Durability>(s: &SkipList<u64, u64, D>) -> Outcome {
        let towers = (1..MAX_HEIGHT)
            .map(|level| {
                let mut keys = Vec::new();
                unsafe {
                    let mut cur = link(s.head, level).load().ptr();
                    while !cur.is_null() {
                        keys.push((*cur).key.load());
                        cur = link(cur, level).load().ptr();
                    }
                }
                keys
            })
            .collect();
        let seq = s.height_seq.load(Ordering::Relaxed);
        (s.iter_snapshot(), towers, s.collector().local_garbage(), seq)
    }

    /// The recovery before it became one walk: pass 1 trims every marked
    /// run, pass 2 rebuilds the towers and resets `link_state`.
    fn recover_two_pass<D: Durability>(s: &SkipList<u64, u64, D>) {
        let guard = s.collector.pin();
        unsafe {
            let mut pred = s.head;
            loop {
                let start = link(pred, 0).load().without_dirty();
                let mut cur = start.ptr();
                while !cur.is_null() && link(cur, 0).load().is_marked() {
                    cur = link(cur, 0).load().ptr();
                }
                if cur != start.ptr() {
                    D::c_cas_link(link(pred, 0), start, MarkedPtr::new(cur)).unwrap();
                    let mut dead = start.ptr();
                    while !dead.is_null() && dead != cur {
                        let nxt = link(dead, 0).load().ptr();
                        guard.retire_with(dead.cast(), free_tower::<u64, u64, D::B>);
                        dead = nxt;
                    }
                }
                if cur.is_null() {
                    break;
                }
                pred = cur;
            }
            let mut prevs = [s.head; MAX_HEIGHT];
            let mut cur = link(s.head, 0).load().ptr();
            while !cur.is_null() {
                (*cur).link_state.store(LINKED);
                for (level, prev) in prevs.iter_mut().enumerate().take(height_of((*cur).meta.load())).skip(1) {
                    link(*prev, level).store(MarkedPtr::new(cur));
                    *prev = cur;
                }
                cur = link(cur, 0).load().ptr();
            }
            for (level, prev) in prevs.iter().enumerate().skip(1) {
                link(*prev, level).store(MarkedPtr::null());
            }
        }
        D::before_return();
    }

    /// One walk and two passes, on the same pool image: nodes marked in
    /// place (a crash between a remove's mark and its unlink) at the head,
    /// in the middle (two adjacent) and at the tail.
    #[test]
    fn one_walk_recovery_matches_the_two_pass_reference() {
        use nvtraverse::TypedRoots;
        let (path, name) = (pool_path("one-walk"), "skip");
        {
            let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
            let s = pool.create_root::<Pooled>(name).unwrap();
            for k in 0..400u64 {
                assert!(s.insert(k * 7 % 400, k));
            }
            for k in (0..400u64).step_by(5) {
                assert!(s.remove(k));
            }
            s.collector().drain();
            let nodes = chain(&*s);
            let mid = nodes.len() / 2;
            for i in [0, mid, mid + 1, nodes.len() - 1] {
                unsafe {
                    let next = link(nodes[i], 0);
                    next.store(next.load().with_mark());
                    MmapBackend::flush(next.addr());
                }
            }
            MmapBackend::fence();
            s.close().unwrap();
        }
        // As a crash leaves it: the clean close sealed the image.
        crate::unseal(&path);
        let image = std::fs::read(&path).unwrap();

        // The reference, on the image as closed.
        let want = {
            let pool = Pool::builder().path(&path).open().unwrap();
            // SAFETY: the root was created as a `Pooled` above; attach alone
            // runs no recovery, so the reference is the only one.
            let s = unsafe { Pooled::attach_to_pool(&pool, name) }.unwrap();
            recover_two_pass(&s);
            let want = outcome(&s);
            assert_eq!(s.check_consistency(false).unwrap(), 320 - 4);
            s.collector().drain();
            want
        };
        assert_eq!(want.2, 4, "the reference retires exactly the marked nodes");

        // The one walk, on the same bytes.
        std::fs::write(&path, &image).unwrap();
        let pool = Pool::builder().path(&path).open().unwrap();
        let s = pool.root::<Pooled>(name).unwrap();
        assert_eq!(outcome(&*s), want);
        assert_eq!(s.check_consistency(false).unwrap(), 320 - 4);
        s.close().unwrap();
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// The heights of the bottom list's nodes whose keys lie in `keys`, in
    /// key order (quiescent).
    fn heights<D: Durability>(s: &SkipList<u64, u64, D>, keys: std::ops::Range<u64>) -> Vec<usize> {
        chain(s)
            .into_iter()
            .filter(|&n| keys.contains(&unsafe { (*n).key.load() }))
            .map(|n| height_of(unsafe { (*n).meta.load() }))
            .collect()
    }

    /// A sealed open seeds the height source past the blocks the pool
    /// holds: keys inserted in ascending order draw heights in key order,
    /// so the second session's heights must not be the first session's
    /// again.
    #[test]
    fn a_sealed_reopen_draws_fresh_heights() {
        use nvtraverse::TypedRoots;
        const K: u64 = 64;
        let path = pool_path("fresh-heights");
        let first = {
            let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
            let s = pool.create_root::<Pooled>("skip").unwrap();
            (0..K).for_each(|k| assert!(s.insert(k, k)));
            let first = heights(&*s, 0..K);
            s.close().unwrap();
            first
        };
        let pool = Pool::builder().path(&path).open().unwrap();
        assert!(pool.recovery_report().sealed);
        let s = pool.root::<Pooled>("skip").unwrap();
        (K..2 * K).for_each(|k| assert!(s.insert(k, k)));
        let second = heights(&*s, K..2 * K);
        assert_eq!(second.len(), first.len());
        assert_ne!(second, first, "the sealed open redrew the first session's heights");
        assert_eq!(s.check_consistency(false).unwrap(), 2 * K as usize);
        s.close().unwrap();
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn height_sequence_is_deterministic_and_bounded() {
        let s1: SkipList<u64, u64, Volatile> = SkipList::new();
        let s2: SkipList<u64, u64, Volatile> = SkipList::new();
        let h1: Vec<usize> = (0..100).map(|_| s1.next_height()).collect();
        let h2: Vec<usize> = (0..100).map(|_| s2.next_height()).collect();
        assert_eq!(h1, h2, "two fresh lists must draw identical heights");
        assert!(h1.iter().all(|&h| (1..=MAX_HEIGHT).contains(&h)));
        assert!(h1.iter().any(|&h| h > 1), "degenerate height sequence");
    }
}
