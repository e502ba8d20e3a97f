//! Harris's lock-free sorted linked list in traversal form — the paper's
//! running example (§2.1, §3, and the pseudocode of §4.4, Algorithms 3–4).
//!
//! The list maps totally ordered [`Word`] keys to [`Word`] values, with set
//! semantics (an insert of an existing key fails and keeps the old value).
//! Deletion is two-phase: a *mark* CAS on the victim's `next` word logically
//! deletes it (freezing the node, Definition 1), and a second CAS swings the
//! predecessor's `next` pointer to physically disconnect it. The traversal
//! never modifies shared memory — physical deletion of marked chains happens
//! in the critical method (`deleteMarkedNodes` of Algorithm 4).
//!
//! The `ORIG_PARENT` const parameter selects the `ensureReachable` strategy
//! of §4.1/Lemma 4.1:
//!
//! * `false` (default) — the *optimization*: the traversal returns the
//!   current parent of the left node and its `next` field is flushed;
//! * `true` — Supplement 2: every node carries an *original parent* field
//!   recording the address of the pointer that linked it in, and that
//!   address is flushed instead (costs one word per node; ablation `abl2`).
//!
//! The chain's window walk, trim, recovery disconnect, quiescent and
//! teardown walks are the crate's shared Harris chain (`chain.rs`); this
//! list keeps its node layout, its durable links, the `ensureReachable`
//! choice above and detectable operations.

use crate::chain::{self, ChainNode, Window};
use nvtraverse::alloc::{alloc_node, free, try_alloc_node, PoolCtx};
use nvtraverse::detect::{ArmHandle, OpError, OpToken};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{Backend, PCell, Word};
use nvtraverse_pool::optable::{
    classify_raw, RawClass, OP_KIND_INSERT, OP_KIND_REMOVE, OP_TARGET_MISS,
};
use nvtraverse_pool::{Marker, OpId, OpOutcome, Pool, RawOp};
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::mem::offset_of;
use std::ops::ControlFlow;

/// One list node. All fields are 64-bit persistent cells; `key`, `value` and
/// `orig_parent` are immutable after initialization (flushed once, before the
/// node is linked in).
///
/// Exposed (with private fields) because it appears in the [`TraversalOps`]
/// associated types; user code never constructs nodes directly.
#[repr(C)]
pub struct Node<K: Word, V: Word, B: Backend> {
    pub(crate) key: PCell<K, B>,
    pub(crate) value: PCell<V, B>,
    /// Link word: pointer to successor + mark bit (logical deletion).
    pub(crate) next: PCell<MarkedPtr<Node<K, V, B>>, B>,
    /// Address of the pointer that first linked this node in (Supplement 2).
    pub(crate) orig_parent: PCell<u64, B>,
    /// Detectable-operation tag ([`OpId::to_bits`] of the insert that
    /// created this node; 0 for non-detectable inserts and sentinels).
    /// Immutable after initialization; what lets recovery attribute a
    /// surviving node to one specific descriptor.
    pub(crate) op_tag: PCell<u64, B>,
}

impl<K: Word + fmt::Debug, V: Word, B: Backend> fmt::Debug for Node<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node").field("key", &self.key).finish()
    }
}

// SAFETY: the offsets name the node's own `key`, `value` and `next` cells;
// `key` and `value` are written once, before the node is linked.
unsafe impl<K: Word, V: Word, B: Backend> ChainNode for Node<K, V, B> {
    type K = K;
    type V = V;
    type B = B;
    const KEY: usize = offset_of!(Self, key);
    const VALUE: usize = offset_of!(Self, value);
    const NEXT: usize = offset_of!(Self, next);
}

type NodePtr<K, V, B> = *mut Node<K, V, B>;

/// The list's operation-driver input: the set operation plus, for
/// detectable operations, the descriptor handle the critical section arms
/// and publishes at its linearization point.
#[derive(Debug, Clone, Copy)]
pub struct ListOp<K, V> {
    op: SetOp<K, V>,
    /// For a detectable operation, the descriptor slot it is driven
    /// through (armed before, published at, its linearization point).
    detect: Option<ArmHandle>,
}

impl<K, V> From<SetOp<K, V>> for ListOp<K, V> {
    fn from(op: SetOp<K, V>) -> Self {
        ListOp { op, detect: None }
    }
}

/// Harris's sorted linked list, parameterized by durability policy.
///
/// See the [module docs](self) and the crate example. All operations are
/// lock-free and (for durable policies) durably linearizable.
pub struct HarrisList<K: Word, V: Word, D: Durability, const ORIG_PARENT: bool = false> {
    /// The head sentinel (also what a pool root records).
    pub(crate) head: NodePtr<K, V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from — its own pool for a
    /// pooled instance, the volatile heap otherwise. Captured at
    /// construction (from the enclosing allocation scope) and re-entered
    /// around every allocating operation, so concurrent structures in
    /// different pools allocate from the right files.
    ctx: PoolCtx,
    _marker: PhantomData<fn() -> D>,
}

/// Harris list variant that implements `ensureReachable` via the
/// original-parent field of Supplement 2 (used by the `abl2` ablation).
pub type HarrisListOrigParent<K, V, D> = HarrisList<K, V, D, true>;

// SAFETY: the raw head pointer is only dereferenced through the lock-free
// protocol; nodes are PCell-based and retired through the collector.
unsafe impl<K: Word, V: Word, D: Durability, const P: bool> Send for HarrisList<K, V, D, P> {}
unsafe impl<K: Word, V: Word, D: Durability, const P: bool> Sync for HarrisList<K, V, D, P> {}

impl<K, V, D, const ORIG_PARENT: bool> HarrisList<K, V, D, ORIG_PARENT>
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
    ///
    /// The hash table shares one collector across all of its bucket lists;
    /// crash tests pass [`Collector::leaking`].
    pub fn with_collector(collector: Collector) -> Self {
        let head = alloc_node::<_, D::B>(Node {
            key: PCell::new(K::from_bits(0)), // sentinel: never read
            value: PCell::new(V::from_bits(0)),
            next: PCell::new(MarkedPtr::null()),
            orig_parent: PCell::new(0),
            op_tag: PCell::new(0),
        });
        // Persist the empty list so it survives a crash at time zero.
        D::persist_new_node(head as *const u8, std::mem::size_of::<Node<K, V, D::B>>());
        D::before_return();
        // SAFETY: a fresh head, owned by this handle alone.
        unsafe { Self::attach_at(head, collector) }
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Rebuilds a list handle around an existing head sentinel — the attach
    /// half of the pool lifecycle.
    ///
    /// # Safety
    ///
    /// `head` must be the head sentinel of a list built with the *same*
    /// `K`/`V`/`D` parameters, reachable and quiescent. The caller is
    /// responsible for not dropping two handles to the same `Box`-backed
    /// list (a pooled handle's drop frees no node — see
    /// `nvtraverse::PooledHandle`).
    pub(crate) unsafe fn attach_at(head: NodePtr<K, V, D::B>, collector: Collector) -> Self {
        HarrisList {
            head,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
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
    /// Describes the violation: unsorted keys, or (when `allow_marked` is
    /// false, e.g. right after recovery) a reachable marked node.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        chain::check(self.head, allow_marked, |_| Ok(()))
    }

    /// The recovery procedure (paper §4 "Recovery"): run `disconnect(root)`
    /// (Supplement 1) — one pass that physically deletes every marked node,
    /// then fences if it disconnected any. A chain with no marked link is
    /// read and left unwritten.
    ///
    /// May run concurrently with other operations (Supplement 1 requires
    /// this), though it is normally called once, quiescently, after a crash.
    pub fn recover_list(&self) {
        if !D::DURABLE {
            return;
        }
        let guard = self.collector.pin();
        let mut trimmed = false;
        let retire = |dead| {
            trimmed = true;
            // SAFETY: the node is disconnected for good; EBR defers the free until all pre-retire guards drop.
            unsafe { guard.retire(dead) }
        };
        chain::disconnect::<_, D>(self.head, retire, |_| {});
        if trimmed {
            D::before_return();
        }
    }

    /// The GC mark walk over the chains rooted at `heads` (one list's head
    /// sentinel, or every bucket's), as one wavefront. Returns, per chain,
    /// whether it crossed a marked link: the plan recovery runs
    /// [`recover_list`](HarrisList::recover_list) on, since a chain
    /// without one is one it would not write to.
    ///
    /// # Safety
    ///
    /// Same contract as [`nvtraverse::PoolTrace::trace`], with every
    /// element of `heads` a head sentinel of this list type.
    pub(crate) unsafe fn trace_heads(heads: &mut [NodePtr<K, V, D::B>], marker: &mut Marker<'_>) -> Vec<bool> {
        let mut marked = vec![false; heads.len()];
        // SAFETY: forwarded; `Marker` vouches for every node whose link is read.
        unsafe {
            crate::trace_chains(marker, heads, |lane, n| {
                // nvt-lint: allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
                let word = (*n).next.load();
                if word.is_marked() {
                    marked[lane] = true;
                }
                word.ptr()
            });
        }
        marked
    }

    /// Classifies one recovered operation descriptor against this list's
    /// **recovered** state. Quiescent; call after
    /// [`recover_list`](HarrisList::recover_list) (so no reachable node is
    /// still marked). Public so crash harnesses can assert the library's
    /// answer per descriptor; the pooled open path runs it automatically
    /// through `PoolAttach::resolve_detectable`.
    ///
    /// The descriptor alone decides stale-sequence and published-no-op
    /// cases; everything else is decided by the surviving state, never by
    /// a published "applied" bit (see `nvtraverse_pool::optable`):
    ///
    /// * insert — committed iff a live node carries this very operation's
    ///   tag;
    /// * remove — not applied if it armed against a miss, or its recorded
    ///   target (by tag) still lives; committed otherwise.
    ///
    /// Assumes at most one detectable client mutates a given key (the
    /// "Tracking in Order to Recover" per-process descriptor model).
    pub fn classify_op(&self, raw: &RawOp) -> OpOutcome {
        match classify_raw(Some(raw), raw.id()) {
            RawClass::Decided(outcome) => outcome,
            RawClass::NeedsLookup => {
                // The op tag of the live node holding exactly this key.
                // nvt-lint: begin-allow(raw-pcell-access): quiescent post-crash inspection of raw tag bits
                // SAFETY: quiescent; `n` is a linked node.
                let tag = chain::walk(self.head, |n, marked| unsafe {
                    if !marked && (*n).key.load().to_bits() == raw.key {
                        ControlFlow::Break((*n).op_tag.load())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                // nvt-lint: end-allow(raw-pcell-access)
                let applied = match raw.kind {
                    OP_KIND_INSERT => tag == Some(raw.id().to_bits()),
                    OP_KIND_REMOVE => raw.target_tag != OP_TARGET_MISS && tag != Some(raw.target_tag),
                    // Unknown kind bits (torn arm that still matched the
                    // sequence number): nothing can have applied.
                    _ => false,
                };
                if applied {
                    OpOutcome::Committed
                } else {
                    OpOutcome::NotApplied
                }
            }
        }
    }
}

impl<K, V, D, const ORIG_PARENT: bool> TraversalOps for HarrisList<K, V, D, ORIG_PARENT>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = ListOp<K, V>;
    /// `Insert` → existing value if the key was present (failure);
    /// `Remove`/`Get` → the value found.
    type Output = Option<V>;
    type Entry = NodePtr<K, V, D::B>;
    type Window = Window<Node<K, V, D::B>>;

    fn find_entry(&self, _guard: &Guard, _input: Self::Input) -> Self::Entry {
        // The head of the list is the only entry point (§3: findEntry "is
        // allowed to simply return the root").
        self.head
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let (SetOp::Insert(key, _) | SetOp::Remove(key) | SetOp::Get(key)) = input.op;
        chain::traverse::<_, D>(self.head, entry, |k| k < key)
    }

    fn collect_persist_set(&self, w: &Self::Window, out: &mut PersistSet) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            if ORIG_PARENT {
                // Supplement 2: flush the location recorded at insert time.
                let addr = D::load_fixed(&(*w.left).orig_parent);
                if addr != 0 {
                    out.set_parent(addr as *const u8);
                }
            } else {
                // Lemma 4.1 optimization: flush the current parent's link.
                out.set_parent((*w.left_parent).next.addr());
            }
            // Protocol 1: the mutable fields the traversal read in the
            // returned nodes (keys are immutable — "no flush", Alg. 3 l.23).
            out.push((*w.left).next.addr());
            if !w.right.is_null() {
                out.push((*w.right).next.addr());
            }
        }
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        let detect = input.detect;
        // deleteMarkedNodes, retiring the trimmed run into this list's collector.
        // SAFETY: a trimmed node is unlinked; EBR defers its free until all pre-retire guards drop.
        let trim = || chain::trim::<_, D, _>(&w, Some(|n| unsafe { guard.retire(n) }));
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let left_next = unsafe { &(*w.left).next };
        match input.op {
            // findCritical (Algorithm 4, lines 1–6).
            SetOp::Get(key) => Critical::Done(w.hit::<D>(key).then(|| w.value::<D>())),
            SetOp::Insert(key, value) => {
                // insertCritical (Algorithm 3, lines 18–35).
                if !trim() {
                    return Critical::Restart;
                }
                if w.hit::<D>(key) {
                    if let Some(h) = detect {
                        // Duplicate: the no-op linearizes right here — arm
                        // and publish together, both made durable by the
                        // operation's closing `before_return` fence.
                        h.arm::<D::B>(0);
                        h.publish::<D::B>(false);
                    }
                    return Critical::Done(Some(w.value::<D>()));
                }
                let Some(node) = try_alloc_node::<_, D::B>(Node {
                    key: PCell::new(key),
                    value: PCell::new(value),
                    next: PCell::new(MarkedPtr::new(w.right)),
                    orig_parent: PCell::new(left_next.addr() as u64),
                    op_tag: PCell::new(detect.map_or(0, |h| h.tag())),
                }) else {
                    // Pool exhausted: nothing changed. The thread-local
                    // pool-full flag is set; report "no effect" through the
                    // duplicate-shaped output so `try_insert` can translate
                    // it into a recoverable error (plain `insert` panics
                    // there, preserving the old contract).
                    return Critical::Done(Some(value));
                };
                D::persist_new_node(node as *const u8, std::mem::size_of::<Node<K, V, D::B>>());
                if let Some(h) = detect {
                    // Armed before the linearizing CAS; that CAS's pre-CAS
                    // fence orders the descriptor before the insertion
                    // becomes durable. Idempotent across restarts.
                    h.arm::<D::B>(0);
                }
                match D::c_cas_link(left_next, MarkedPtr::new(w.right), MarkedPtr::new(node)) {
                    Ok(()) => {
                        if let Some(h) = detect {
                            // Linearized: publish the applied result; the
                            // closing `before_return` fence makes it durable.
                            h.publish::<D::B>(true);
                        }
                        Critical::Done(None)
                    }
                    Err(_) => {
                        // Never published: free directly, no epoch needed.
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { free(node) };
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                // deleteCritical (Algorithm 3, lines 37–57).
                if !trim() {
                    return Critical::Restart;
                }
                if !w.hit::<D>(key) {
                    if let Some(h) = detect {
                        // Miss: a no-op remove. The MISS sentinel (not 0)
                        // distinguishes this from removing an untagged node.
                        h.arm::<D::B>(OP_TARGET_MISS);
                        h.publish::<D::B>(false);
                    }
                    return Critical::Done(None);
                }
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let right_next = unsafe { &(*w.right).next };
                let r_next = D::c_load_link(right_next);
                if r_next.is_marked() {
                    return Critical::Restart;
                }
                if let Some(h) = detect {
                    // Record which node this remove targets (its insert's
                    // tag — 0 for non-detectable inserts), so recovery can
                    // ask "does that exact node survive?". The marking
                    // CAS's pre-fence orders the armed words.
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    h.arm::<D::B>(D::load_fixed(unsafe { &(*w.right).op_tag }));
                }
                match D::c_cas_link(right_next, r_next, r_next.with_mark()) {
                    Ok(()) => {
                        if let Some(h) = detect {
                            // The mark IS the linearization (logical
                            // deletion); publish before the best-effort
                            // physical splice.
                            h.publish::<D::B>(true);
                        }
                        // Logically deleted; now try the physical splice. If
                        // it fails another traversal's trim will finish it.
                        if D::c_cas_link(left_next, MarkedPtr::new(w.right), r_next).is_ok() {
                            // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                            unsafe { guard.retire(w.right) };
                        }
                        Critical::Done(Some(w.value::<D>()))
                    }
                    Err(_) => Critical::Restart,
                }
            }
        }
    }
}

impl<K, V, D, const ORIG_PARENT: bool> DurableSet<K, V> for HarrisList<K, V, D, ORIG_PARENT>
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
        run_operation(self, &guard, ListOp::from(SetOp::Remove(key))).is_some()
    }

    fn get(&self, key: K) -> Option<V> {
        let guard = self.collector.pin();
        run_operation(self, &guard, ListOp::from(SetOp::Get(key)))
    }

    fn len(&self) -> usize {
        chain::len(self.head)
    }

    fn recover(&self) {
        self.recover_list();
    }

    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        chain::allocating(&self.ctx, &self.collector, |guard| {
            run_operation(self, guard, ListOp::from(SetOp::Insert(key, value))).is_none()
        })
    }

    fn insert_detectable(
        &self,
        token: &mut OpToken,
        key: K,
        value: V,
    ) -> Result<(OpId, bool), OpError> {
        chain::allocating(&self.ctx, &self.collector, |guard| {
            let h = token.begin_insert(key.to_bits(), value.to_bits());
            let op = ListOp { op: SetOp::Insert(key, value), detect: Some(h) };
            (h.id(), run_operation(self, guard, op).is_none())
        })
    }

    fn remove_detectable(&self, token: &mut OpToken, key: K) -> Result<(OpId, bool), OpError> {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        let h = token.begin_remove(key.to_bits());
        let op = ListOp { op: SetOp::Remove(key), detect: Some(h) };
        let removed = run_operation(self, &guard, op);
        Ok((h.id(), removed.is_some()))
    }
}

impl<K, V, D, const ORIG_PARENT: bool> PoolAttach for HarrisList<K, V, D, ORIG_PARENT>
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
        let head = pool.attach_root_ptr::<Node<K, V, D::B>>(name)?;
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(head, pool.collector().clone()) })
    }

    fn resolve_detectable(&self, pool: &Pool) {
        for raw in pool.unresolved_ops() {
            pool.resolve_op(raw.id(), self.classify_op(&raw));
        }
    }
}

// SAFETY: the walk mirrors `recover_list` exactly — from the head sentinel
// along `next` pointers, straight *through* marked nodes (a reachable
// marked node is trimmed by recovery, so it must survive the sweep). The
// only other blocks a list ever reaches are its nodes' own fields.
// SAFETY: the trace only reads; the plan is the one flag `recover_attached` acts on.
unsafe impl<K, V, D, const ORIG_PARENT: bool> nvtraverse::PoolTrace
    for HarrisList<K, V, D, ORIG_PARENT>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Whether the chain crossed a marked link.
    type Plan = bool;

    // SAFETY: see `PoolTrace::trace` — `root` is this type's head sentinel, on the quiescent, header-verified heap of `Pool::open` recovery.
    unsafe fn trace(root: *mut u8, marker: &mut Marker<'_>) -> bool {
        // SAFETY: forwarded — one chain, rooted at this list's head sentinel.
        unsafe { Self::trace_heads(&mut [root as NodePtr<K, V, D::B>], marker)[0] }
    }

    /// [`recover_list`](HarrisList::recover_list), if the trace crossed a
    /// marked link: otherwise there is nothing to disconnect.
    fn recover_attached(&self, marked: bool) {
        if marked {
            self.recover_list();
        }
    }
}

impl<K, V, D, const P: bool> Default for HarrisList<K, V, D, P>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D, const P: bool> fmt::Debug for HarrisList<K, V, D, P>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarrisList")
            .field("len", &chain::len(self.head))
            .field("durable", &D::DURABLE)
            .finish()
    }
}

impl<K: Word, V: Word, D: Durability, const P: bool> Drop for HarrisList<K, V, D, P> {
    fn drop(&mut self) {
        // A pooled list's nodes belong to the pool: drop only the shell.
        if self.ctx.is_pooled() {
            return;
        }
        // Exclusive access: free every node reachable from head, marked or
        // not. Trimmed nodes were handed to the collector already.
        // SAFETY: exclusive access — no other thread can reach these nodes.
        chain::teardown(self.head, |n| unsafe { free(n) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Volatile};
    use nvtraverse_pmem::{Clwb, Noop};

    fn policies_smoke<D: Durability>() {
        let l: HarrisList<u64, u64, D> = HarrisList::new();
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
        assert_eq!(
            l.iter_snapshot(),
            vec![(1, 10), (3, 30)],
            "must stay sorted"
        );
    }

    #[test]
    fn volatile_semantics() {
        policies_smoke::<Volatile>();
    }

    #[test]
    fn nvtraverse_semantics() {
        policies_smoke::<NvTraverse<Clwb>>();
    }

    #[test]
    fn izraelevitz_semantics() {
        policies_smoke::<Izraelevitz<Clwb>>();
    }

    #[test]
    fn link_persist_semantics() {
        policies_smoke::<LinkPersist<Clwb>>();
    }

    #[test]
    fn orig_parent_variant_semantics() {
        let l: HarrisListOrigParent<u64, u64, NvTraverse<Noop>> = HarrisList::new();
        for k in 0..50u64 {
            assert!(l.insert(k, k + 100));
        }
        for k in (0..50u64).step_by(2) {
            assert!(l.remove(k));
        }
        assert_eq!(l.len(), 25);
        assert_eq!(l.check_consistency(true).unwrap(), 25);
    }

    #[test]
    fn signed_keys_sort_by_value_not_bits() {
        let l: HarrisList<i64, u64, Volatile> = HarrisList::new();
        for k in [-5i64, 3, -1, 0, 7] {
            assert!(l.insert(k, 0));
        }
        let keys: Vec<i64> = l.iter_snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![-5, -1, 0, 3, 7]);
    }

    #[test]
    fn boundary_inserts_at_both_ends() {
        let l: HarrisList<u64, u64, Volatile> = HarrisList::new();
        assert!(l.insert(u64::MAX, 1));
        assert!(l.insert(0, 2));
        assert!(l.insert(u64::MAX / 2, 3));
        assert_eq!(l.get(u64::MAX), Some(1));
        assert_eq!(l.get(0), Some(2));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn matches_model_on_random_sequential_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let l: HarrisList<u64, u64, NvTraverse<Noop>> = HarrisList::new();
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
        let l: HarrisList<u64, u64, NvTraverse<Clwb>> = HarrisList::new();
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
        // All threads fight over one key; successful inserts and removes
        // must alternate per key, so totals balance.
        use std::sync::atomic::{AtomicI64, Ordering};
        let l: HarrisList<u64, u64, NvTraverse<Clwb>> = HarrisList::new();
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
    fn concurrent_mixed_ops_stress() {
        use rand::prelude::*;
        let l: HarrisList<u64, u64, LinkPersist<Clwb>> = HarrisList::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                    for _ in 0..4000 {
                        let k = rng.random_range(0..128);
                        match rng.random_range(0..10) {
                            0..=2 => {
                                l.insert(k, k);
                            }
                            3..=5 => {
                                l.remove(k);
                            }
                            _ => {
                                l.get(k);
                            }
                        }
                    }
                });
            }
        });
        l.check_consistency(true).unwrap();
    }

    #[test]
    fn recovery_trims_marked_nodes() {
        // Mark a node by hand (simulating a crash between the mark and the
        // physical delete), then check recover() disconnects it.
        let l: HarrisList<u64, u64, NvTraverse<Noop>> = HarrisList::new();
        for k in 1..=5u64 {
            l.insert(k, k);
        }
        unsafe {
            // Find node 3 and set its mark bit directly.
            let mut cur = (*l.head).next.load().ptr();
            while !cur.is_null() && (*cur).key.load() != 3 {
                cur = (*cur).next.load().ptr();
            }
            let nw = (*cur).next.load();
            (*cur).next.store(nw.with_mark());
        }
        assert!(l.check_consistency(false).is_err(), "marked node visible");
        l.recover();
        assert_eq!(l.check_consistency(false).unwrap(), 4);
        assert_eq!(l.get(3), None);
        assert!(l.insert(3, 33), "list must be fully usable after recovery");
    }

    #[test]
    fn drop_frees_marked_and_unmarked() {
        // Covered implicitly by miri-less leak checks elsewhere; here we just
        // exercise the path: build, mark one node, drop.
        let l: HarrisList<u64, u64, Volatile> = HarrisList::new();
        for k in 1..=10u64 {
            l.insert(k, k);
        }
        unsafe {
            let first = (*l.head).next.load().ptr();
            let nw = (*first).next.load();
            (*first).next.store(nw.with_mark());
        }
        drop(l); // must not leak or double-free
    }

    #[test]
    fn empty_list_operations() {
        let l: HarrisList<u64, u64, NvTraverse<Noop>> = HarrisList::new();
        assert_eq!(l.get(1), None);
        assert!(!l.remove(1));
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert_eq!(l.check_consistency(false).unwrap(), 0);
        l.recover(); // recovery of an empty list is a no-op
        assert!(l.is_empty());
    }

    #[test]
    fn debug_format_mentions_len() {
        let l: HarrisList<u64, u64, Volatile> = HarrisList::new();
        l.insert(1, 1);
        let s = format!("{l:?}");
        assert!(s.contains("len"), "{s}");
    }

    #[test]
    fn detectable_ops_publish_and_classify() {
        use nvtraverse::detect::OpTable;
        use nvtraverse_pool::optable::{OP_RESULT_APPLIED, OP_RESULT_NOOP};

        let l: HarrisList<u64, u64, NvTraverse<Noop>> = HarrisList::new();
        let table: OpTable<Noop> = OpTable::new(4);
        let mut tok = table.token(0);

        // Fresh insert: published applied, classifiable as committed.
        let (id1, fresh) = l.insert_detectable(&mut tok, 7, 70).unwrap();
        assert!(fresh);
        let raw = table.raw(0).expect("descriptor armed");
        assert_eq!(raw.id(), id1);
        assert_eq!(raw.published(), Some(OP_RESULT_APPLIED));
        assert_eq!(l.classify_op(&raw), OpOutcome::Committed);
        assert_eq!(l.get(7), Some(70));

        // Duplicate insert: published no-op, and the earlier op is now
        // superseded in the descriptor.
        let (id2, fresh) = l.insert_detectable(&mut tok, 7, 99).unwrap();
        assert!(!fresh);
        assert!(id2.seq() > id1.seq());
        let raw = table.raw(0).unwrap();
        assert_eq!(raw.id(), id2);
        assert_eq!(raw.published(), Some(OP_RESULT_NOOP));
        assert_eq!(l.classify_op(&raw), OpOutcome::NotApplied);
        assert_eq!(
            classify_raw(Some(&raw), id1),
            RawClass::Decided(OpOutcome::Superseded)
        );
        assert_eq!(l.get(7), Some(70), "failed insert must not overwrite");

        // Remove of a missing key: armed against a miss, no-op.
        let (_, removed) = l.remove_detectable(&mut tok, 100).unwrap();
        assert!(!removed);
        let raw = table.raw(0).unwrap();
        assert_eq!(raw.target_tag, OP_TARGET_MISS);
        assert_eq!(l.classify_op(&raw), OpOutcome::NotApplied);

        // Remove of a live key: committed, and the key is gone.
        let (_, removed) = l.remove_detectable(&mut tok, 7).unwrap();
        assert!(removed);
        let raw = table.raw(0).unwrap();
        assert_eq!(raw.published(), Some(OP_RESULT_APPLIED));
        assert_eq!(l.classify_op(&raw), OpOutcome::Committed);
        assert_eq!(l.get(7), None);

        // A re-issued token resumes from the stored sequence number.
        let resumed = table.token(0);
        assert_eq!(resumed.last_op().map(|id| id.seq()), Some(raw.seq));
    }
}
