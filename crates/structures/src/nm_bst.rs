//! Natarajan & Mittal's lock-free external BST (PPoPP 2014) in traversal
//! form — the second BST of the paper's evaluation (§5; the paper finds it
//! faster than Ellen et al.'s tree in the volatile version, with the gap
//! carrying over to the durable versions).
//!
//! Unlike Ellen et al.'s tree, which coordinates through per-node operation
//! descriptors, this algorithm marks **edges**: the child word is tagged
//! with up to two bits —
//!
//! * **flag** (our `MARK_BIT`): set on the edge to a leaf to *inject* its
//!   deletion; the flagged edge is frozen, which is the paper's Definition 1
//!   mark (the leaf and its parent can no longer be modified);
//! * **tag** (our `FLAG_BIT`): set on the sibling edge during cleanup so the
//!   sibling cannot change while the deleter swings the *ancestor* edge from
//!   the successor down to the sibling — the unique disconnection
//!   instruction of Property 5.
//!
//! The traversal (`seek`) returns the four-node window
//! `(ancestor, successor, parent, leaf)` plus the addresses of the two edges
//! the critical method may CAS, which is exactly the persist set Protocol 1
//! needs.

use nvtraverse::alloc::{alloc_node, free, PoolCtx};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{persist_window, run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{Backend, PCell, Word};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;

/// Sentinel ranks: all ordinary keys sort below ∞₀ < ∞₁ < ∞₂.
const RANK_NORMAL: u64 = 0;
const RANK_INF0: u64 = 1;
const RANK_INF1: u64 = 2;
const RANK_INF2: u64 = 3;

/// Edge-word helpers, named after the algorithm's terminology.
#[inline]
fn is_flg<T>(w: MarkedPtr<T>) -> bool {
    w.is_marked()
}
#[inline]
fn is_tag<T>(w: MarkedPtr<T>) -> bool {
    w.is_flagged()
}
#[inline]
fn with_tag<T>(w: MarkedPtr<T>) -> MarkedPtr<T> {
    w.with_flag()
}

/// A tree node; `key`, `rank`, `leaf` and `value` are immutable. Children of
/// leaves stay null forever.
#[repr(C)]
pub struct NmNode<K: Word, V: Word, B: Backend> {
    key: PCell<K, B>,
    value: PCell<V, B>,
    rank: PCell<u64, B>,
    leaf: PCell<bool, B>,
    left: PCell<MarkedPtr<NmNode<K, V, B>>, B>,
    right: PCell<MarkedPtr<NmNode<K, V, B>>, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for NmNode<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NmNode").field("leaf", &self.leaf).finish()
    }
}

type NodePtr<K, V, B> = *mut NmNode<K, V, B>;
type EdgeCell<K, V, B> = PCell<MarkedPtr<NmNode<K, V, B>>, B>;

/// The seek record: the window `traverse` hands to `critical`.
pub struct NmSeek<K: Word, V: Word, B: Backend> {
    /// Deepest node on the path whose outgoing path edge was untagged.
    ancestor: NodePtr<K, V, B>,
    /// Ancestor's child on the path (the subtree the cleanup CAS replaces).
    successor: NodePtr<K, V, B>,
    /// The leaf's parent.
    parent: NodePtr<K, V, B>,
    /// The destination leaf.
    leaf: NodePtr<K, V, B>,
    /// The edge `ancestor → successor` (cleanup's CAS target).
    anc_succ_edge: *const EdgeCell<K, V, B>,
    /// The edge `parent → leaf` (injection/insertion CAS target).
    parent_edge: *const EdgeCell<K, V, B>,
    /// The edge followed *into* the ancestor (ensureReachable), null at root.
    anc_in_edge: *const EdgeCell<K, V, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for NmSeek<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NmSeek")
            .field("parent", &self.parent)
            .field("leaf", &self.leaf)
            .finish()
    }
}

/// Natarajan–Mittal's lock-free external BST, parameterized by durability
/// policy.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::nm_bst::NmBst;
///
/// let t: NmBst<u64, u64, NvTraverse<Clwb>> = NmBst::new();
/// assert!(t.insert(7, 70));
/// assert_eq!(t.get(7), Some(70));
/// assert!(t.remove(7));
/// ```
pub struct NmBst<K: Word, V: Word, D: Durability> {
    /// Sentinel R(∞₂); R.left = S(∞₁), R.right = leaf(∞₂);
    /// S.left = leaf(∞₀), S.right = leaf(∞₁).
    root: NodePtr<K, V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from — its own pool for a
    /// pooled instance, the volatile heap otherwise. Captured at
    /// construction (from the enclosing allocation scope) and re-entered
    /// around every allocating operation, so concurrent structures in
    /// different pools allocate from the right files.
    ctx: PoolCtx,
    _marker: PhantomData<fn() -> D>,
}

// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Send for NmBst<K, V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Sync for NmBst<K, V, D> {}

impl<K, V, D> NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates the initial sentinel tree.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty tree retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let mk_leaf = |rank: u64| {
            alloc_node::<_, D::B>(NmNode {
                key: PCell::new(K::from_bits(0)),
                value: PCell::new(V::from_bits(0)),
                rank: PCell::new(rank),
                leaf: PCell::new(true),
                left: PCell::new(MarkedPtr::null()),
                right: PCell::new(MarkedPtr::null()),
            })
        };
        let l_inf0 = mk_leaf(RANK_INF0);
        let l_inf1 = mk_leaf(RANK_INF1);
        let l_inf2 = mk_leaf(RANK_INF2);
        let s = alloc_node::<_, D::B>(NmNode {
            key: PCell::new(K::from_bits(0)),
            value: PCell::new(V::from_bits(0)),
            rank: PCell::new(RANK_INF1),
            leaf: PCell::new(false),
            left: PCell::new(MarkedPtr::new(l_inf0)),
            right: PCell::new(MarkedPtr::new(l_inf1)),
        });
        let r = alloc_node::<_, D::B>(NmNode {
            key: PCell::new(K::from_bits(0)),
            value: PCell::new(V::from_bits(0)),
            rank: PCell::new(RANK_INF2),
            leaf: PCell::new(false),
            left: PCell::new(MarkedPtr::new(s)),
            right: PCell::new(MarkedPtr::new(l_inf2)),
        });
        let size = std::mem::size_of::<NmNode<K, V, D::B>>();
        for n in [l_inf0, l_inf1, l_inf2, s, r] {
            D::persist_new_node(n as *const u8, size);
        }
        D::before_return();
        NmBst {
            root: r,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Rebuilds a tree handle around an existing sentinel root — the attach
    /// half of the pool lifecycle. The caller must run
    /// [`NmBst::recover_tree`] before any operation so every injected
    /// (flagged) deletion is completed and no tagged edge stays reachable.
    ///
    /// # Safety
    ///
    /// `root` must be the `R(∞₂)` sentinel of a tree built with the *same*
    /// `K`/`V`/`D` parameters, reachable and quiescent, and the caller must
    /// not drop two handles to the same `Box`-backed tree (a pooled
    /// handle's drop frees no node — see `nvtraverse::PooledHandle`).
    unsafe fn attach_at(root: NodePtr<K, V, D::B>, collector: Collector) -> Self {
        NmBst {
            root,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    #[inline]
    fn goes_left(k: K, node: NodePtr<K, V, D::B>) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let rank = D::load_fixed(&(*node).rank);
            if rank != RANK_NORMAL {
                true
            } else {
                k < D::load_fixed(&(*node).key)
            }
        }
    }

    #[inline]
    fn leaf_is(l: NodePtr<K, V, D::B>, k: K) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe { D::load_fixed(&(*l).rank) == RANK_NORMAL && D::load_fixed(&(*l).key) == k }
    }

    #[inline]
    fn node_lt(a: NodePtr<K, V, D::B>, b: NodePtr<K, V, D::B>) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let (ra, rb) = (D::load_fixed(&(*a).rank), D::load_fixed(&(*b).rank));
            if ra != rb {
                ra < rb
            } else if ra != RANK_NORMAL {
                false
            } else {
                D::load_fixed(&(*a).key) < D::load_fixed(&(*b).key)
            }
        }
    }

    /// The cleanup routine: completes the deletion whose *flag* is visible on
    /// one of `rec.parent`'s edges. Returns whether the ancestor swing
    /// succeeded (by us).
    fn cleanup(&self, guard: &Guard, rec: &NmSeek<K, V, D::B>) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let p = rec.parent;
            let left_w = D::c_load_link(&(*p).left);
            let right_w = D::c_load_link(&(*p).right);
            // The flagged edge identifies the leaf being deleted.
            let (flag_target, other_cell): (_, &EdgeCell<K, V, D::B>) = if is_flg(left_w) {
                (left_w.ptr(), &(*p).right)
            } else if is_flg(right_w) {
                (right_w.ptr(), &(*p).left)
            } else {
                return false; // stale window: nothing to clean here
            };
            // Tag the sibling edge so it cannot change under us.
            loop {
                let w = D::c_load_link(other_cell);
                if is_tag(w) {
                    break;
                }
                if D::c_cas_link(other_cell, w, with_tag(w)).is_ok() {
                    break;
                }
            }
            let sib = D::c_load_link(other_cell);
            // Swing the ancestor edge from the successor to the sibling,
            // preserving the sibling's flag (it may itself be mid-deletion),
            // dropping the tag (the edge is leaving the tree).
            let mut new_word = MarkedPtr::new(sib.ptr());
            if is_flg(sib) {
                new_word = new_word.with_mark();
            }
            let anc_cell = &*rec.anc_succ_edge;
            let ok = D::c_cas_link(anc_cell, MarkedPtr::new(rec.successor), new_word).is_ok();
            if ok && rec.successor == rec.parent {
                // Common case: exactly {parent, flagged leaf} left the tree.
                guard.retire(p);
                if !flag_target.is_null() {
                    guard.retire(flag_target);
                }
            }
            // (When successor != parent a tagged chain was disconnected; it
            // is left to the collector-less domain — a bounded leak that
            // only occurs under contention, as in the reference C code.)
            ok
        }
    }

    /// Re-runs the seek inside the critical method (delete completion) and
    /// persists its window per Protocol 1 before acting on it.
    fn seek_persisted(&self, guard: &Guard, key: K) -> NmSeek<K, V, D::B> {
        let rec = self.traverse(guard, self.root, SetOp::Get(key));
        persist_window(self, &rec);
        rec
    }

    /// Quiescent in-order walk of ordinary leaves.
    fn collect_leaves(&self, node: NodePtr<K, V, D::B>, out: &mut Vec<(K, V)>) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            if node.is_null() {
                return;
            }
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            if (*node).leaf.load() {
                if (*node).rank.load() == RANK_NORMAL {
                    out.push(((*node).key.load(), (*node).value.load()));
                }
                return;
            }
            self.collect_leaves((*node).left.load().ptr(), out);
            self.collect_leaves((*node).right.load().ptr(), out);
            // nvt-lint: end-allow(raw-pcell-access)
        }
    }

    /// Quiescent: all `(key, value)` pairs in key order.
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.collect_leaves(self.root, &mut out);
        out
    }

    /// Quiescent: verifies external-BST shape; returns ordinary-key count.
    ///
    /// # Errors
    ///
    /// Reports order violations and (when `require_clean`) any reachable
    /// flagged or tagged edge.
    pub fn check_consistency(&self, require_clean: bool) -> Result<usize, String> {
        fn walk<K: Word + Ord, V: Word, D: Durability>(
            node: NodePtr<K, V, D::B>,
            require_clean: bool,
            count: &mut usize,
        ) -> Result<(), String> {
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            unsafe {
                if node.is_null() {
                    return Err("null child".into());
                }
                // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
                if (*node).leaf.load() {
                    if (*node).rank.load() == RANK_NORMAL {
                        *count += 1;
                    }
                    return Ok(());
                }
                for w in [(*node).left.load(), (*node).right.load()] {
                    if require_clean && (is_flg(w) || is_tag(w)) {
                        return Err("flagged/tagged edge after recovery".into());
                    }
                }
                walk::<K, V, D>((*node).left.load().ptr(), require_clean, count)?;
                walk::<K, V, D>((*node).right.load().ptr(), require_clean, count)
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
        let mut count = 0;
        walk::<K, V, D>(self.root, require_clean, &mut count)?;
        let snap = self.iter_snapshot();
        for w in snap.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err("leaf keys not strictly increasing".into());
            }
        }
        Ok(count)
    }

    /// Finds one reachable flagged edge's leaf, if any (recovery helper).
    fn find_flagged(&self, node: NodePtr<K, V, D::B>) -> Option<NodePtr<K, V, D::B>> {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): single-threaded recovery reads raw bits (marks, flags, poison) by design
            if node.is_null() || (*node).leaf.load() {
                return None;
            }
            for w in [(*node).left.load(), (*node).right.load()] {
                if is_flg(w) {
                    return Some(w.ptr());
                }
            }
            self.find_flagged((*node).left.load().ptr())
                .or_else(|| self.find_flagged((*node).right.load().ptr()))
                // nvt-lint: end-allow(raw-pcell-access)
        }
    }

    /// Recovery (Supplement 1): complete every injected deletion so that no
    /// flagged or tagged edge stays reachable.
    pub fn recover_tree(&self) {
        if !D::DURABLE {
            return;
        }
        let guard = self.collector.pin();
        while let Some(leaf) = self.find_flagged(self.root) {
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            // nvt-lint: allow(raw-pcell-access): single-threaded recovery reads raw bits (marks, flags, poison) by design
            let key = unsafe { (*leaf).key.load() };
            loop {
                let rec = self.seek_persisted(&guard, key);
                if rec.leaf != leaf {
                    break; // already disconnected
                }
                if self.cleanup(&guard, &rec) {
                    break;
                }
            }
        }
        D::before_return();
    }
}

impl<K: Word, V: Word, D: Durability> NmBst<K, V, D> {
    /// Teardown-safe child read: poisoned words read as null (tail leaks).
    fn teardown_child(cell: &EdgeCell<K, V, D::B>) -> NodePtr<K, V, D::B> {
        // nvt-lint: allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
        let bits = cell.peek_bits();
        if bits == nvtraverse_pmem::POISON {
            std::ptr::null_mut()
        } else {
            MarkedPtr::<NmNode<K, V, D::B>>::from_bits_raw(bits).ptr()
        }
    }

    fn free_subtree(node: NodePtr<K, V, D::B>) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            if node.is_null() {
                return;
            }
            // nvt-lint: allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
            let leaf_bits = (*node).leaf.peek_bits();
            if leaf_bits != nvtraverse_pmem::POISON && !bool::from_bits(leaf_bits) {
                Self::free_subtree(Self::teardown_child(&(*node).left));
                Self::free_subtree(Self::teardown_child(&(*node).right));
            }
            free(node);
        }
    }
}

impl<K, V, D> TraversalOps for NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = SetOp<K, V>;
    type Output = Option<V>;
    type Entry = NodePtr<K, V, D::B>;
    type Window = NmSeek<K, V, D::B>;

    fn find_entry(&self, _guard: &Guard, _input: Self::Input) -> Self::Entry {
        self.root
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let key = match input {
            SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k) => k,
        };
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let r = entry;
            let r_left: &EdgeCell<K, V, D::B> = &(*r).left;
            let s = D::t_load_link(r_left).ptr(); // S is a sentinel, immortal
            let s_left: &EdgeCell<K, V, D::B> = &(*s).left;
            let sl_word = D::t_load_link(s_left);

            let mut rec = NmSeek {
                ancestor: r,
                successor: s,
                parent: s,
                leaf: sl_word.ptr(),
                anc_succ_edge: r_left as *const _,
                parent_edge: s_left as *const _,
                anc_in_edge: std::ptr::null(),
            };
            let mut into_parent: *const EdgeCell<K, V, D::B> = r_left as *const _;
            let mut parent_field = sl_word;
            loop {
                let cur = rec.leaf;
                if D::load_fixed(&(*cur).leaf) {
                    break;
                }
                let next_cell: &EdgeCell<K, V, D::B> = if Self::goes_left(key, cur) {
                    &(*cur).left
                } else {
                    &(*cur).right
                };
                let next_field = D::t_load_link(next_cell);
                if next_field.is_null() {
                    break; // defensive: treat as destination
                }
                if !is_tag(parent_field) {
                    rec.ancestor = rec.parent;
                    rec.successor = rec.leaf;
                    rec.anc_succ_edge = rec.parent_edge;
                    rec.anc_in_edge = into_parent;
                }
                into_parent = rec.parent_edge;
                rec.parent = rec.leaf;
                rec.parent_edge = next_cell as *const _;
                parent_field = next_field;
                rec.leaf = next_field.ptr();
            }
            rec
        }
    }

    fn collect_persist_set(&self, w: &Self::Window, out: &mut PersistSet) {
        // ensureReachable: the edge that links the window's topmost node
        // (Lemma 4.1 with k = 1 — inserts link a single internal node whose
        // two children are persisted before publication).
        if !w.anc_in_edge.is_null() {
            out.set_parent(w.anc_in_edge as *const u8);
        }
        // makePersistent: the two edges the critical method depends on.
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            out.push((*w.anc_succ_edge).addr());
            out.push((*w.parent_edge).addr());
        }
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        match input {
            SetOp::Get(key) => {
                if Self::leaf_is(w.leaf, key) {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    Critical::Done(Some(D::load_fixed(unsafe { &(*w.leaf).value })))
                } else {
                    Critical::Done(None)
                }
            }
            SetOp::Insert(key, value) => {
                if Self::leaf_is(w.leaf, key) {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    return Critical::Done(Some(D::load_fixed(unsafe { &(*w.leaf).value })));
                }
                let new_leaf = alloc_node::<_, D::B>(NmNode {
                    key: PCell::new(key),
                    value: PCell::new(value),
                    rank: PCell::new(RANK_NORMAL),
                    leaf: PCell::new(true),
                    left: PCell::new(MarkedPtr::null()),
                    right: PCell::new(MarkedPtr::null()),
                });
                // The existing leaf is *reused* as the other child (unlike
                // Ellen et al., no copy is made).
                let (lc, rc, ikey, irank) = if Self::node_lt(new_leaf, w.leaf) {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    unsafe {
                        (
                            new_leaf,
                            w.leaf,
                            D::load_fixed(&(*w.leaf).key),
                            D::load_fixed(&(*w.leaf).rank),
                        )
                    }
                } else {
                    (w.leaf, new_leaf, key, RANK_NORMAL)
                };
                let new_internal = alloc_node::<_, D::B>(NmNode {
                    key: PCell::new(ikey),
                    value: PCell::new(V::from_bits(0)),
                    rank: PCell::new(irank),
                    leaf: PCell::new(false),
                    left: PCell::new(MarkedPtr::new(lc)),
                    right: PCell::new(MarkedPtr::new(rc)),
                });
                let size = std::mem::size_of::<NmNode<K, V, D::B>>();
                D::persist_new_node(new_leaf as *const u8, size);
                D::persist_new_node(new_internal as *const u8, size);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let cell = unsafe { &*w.parent_edge };
                match D::c_cas_link(cell, MarkedPtr::new(w.leaf), MarkedPtr::new(new_internal)) {
                    Ok(()) => Critical::Done(None),
                    Err(actual) => {
                        // Help a deletion that froze our edge, then retry.
                        if actual.ptr() == w.leaf && (is_flg(actual) || is_tag(actual)) {
                            self.cleanup(guard, &w);
                        }
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        unsafe {
                            free(new_leaf);
                            free(new_internal);
                        }
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                if !Self::leaf_is(w.leaf, key) {
                    return Critical::Done(None);
                }
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let cell = unsafe { &*w.parent_edge };
                // Injection: flag the edge to the leaf (the Definition 1
                // mark — the unique deletion intent for this leaf).
                let clean = MarkedPtr::new(w.leaf);
                match D::c_cas_link(cell, clean, clean.with_mark()) {
                    Ok(()) => {
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        let value = D::load_fixed(unsafe { &(*w.leaf).value });
                        let my_leaf = w.leaf;
                        // Cleanup mode: retry until our leaf is disconnected
                        // (by us or a helper).
                        let mut rec = w;
                        loop {
                            if self.cleanup(guard, &rec) {
                                break;
                            }
                            rec = self.seek_persisted(guard, key);
                            if rec.leaf != my_leaf {
                                break;
                            }
                        }
                        Critical::Done(Some(value))
                    }
                    Err(actual) => {
                        if actual.ptr() == w.leaf && (is_flg(actual) || is_tag(actual)) {
                            self.cleanup(guard, &w);
                        }
                        Critical::Restart
                    }
                }
            }
        }
    }
}

impl<K, V, D> DurableSet<K, V> for NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn insert(&self, key: K, value: V) -> bool {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Insert(key, value)).is_none()
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
        self.iter_snapshot().len()
    }

    fn recover(&self) {
        self.recover_tree();
    }
}

impl<K, V, D> PoolAttach for NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let t = Self::with_collector(pool.collector().clone());
        pool.set_root_ptr_checked(name, t.root)?;
        Ok(t)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let root = pool.attach_root_ptr::<NmNode<K, V, D::B>>(name)?;
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(root, pool.collector().clone()) })
    }
}

// SAFETY: the tree coordinates through flag/tag bits *on the edges* — there
// are no operation descriptors — so the reachable set is exactly the nodes
// under the sentinel root via child pointers with tags stripped. A flagged
// (mid-deletion) leaf and its parent are still linked until cleanup's
// ancestor swing, so the plain child walk keeps them for `recover_tree` to
// complete; tagged chains already disconnected under contention are
// unreachable, provably garbage, and left for the sweep (this is the
// reference implementation's bounded leak, now reclaimed at open).
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<K, V, D> nvtraverse::PoolTrace for NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type Plan = ();

    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        let mut work: Vec<NodePtr<K, V, D::B>> = vec![root as NodePtr<K, V, D::B>];
        while let Some(node) = work.pop() {
            if node.is_null() || !marker.mark(node as *const u8) {
                continue;
            }
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            unsafe {
                // nvt-lint: begin-allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
                if (*node).leaf.load() {
                    continue;
                }
                work.push((*node).left.load().ptr());
                work.push((*node).right.load().ptr());
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
    }

    fn recover_attached(&self, (): ()) {
        self.recover_tree();
    }
}

impl<K, V, D> Default for NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for NmBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NmBst").field("len", &self.len()).finish()
    }
}

impl<K: Word, V: Word, D: Durability> Drop for NmBst<K, V, D> {
    fn drop(&mut self) {
        // A pooled tree's nodes belong to the pool: drop only the shell.
        if self.ctx.is_pooled() {
            return;
        }
        Self::free_subtree(self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Volatile};
    use nvtraverse_pmem::{Clwb, Noop};

    fn smoke<D: Durability>() {
        let t: NmBst<u64, u64, D> = NmBst::new();
        assert!(t.is_empty());
        assert!(t.insert(5, 50));
        assert!(t.insert(3, 30));
        assert!(t.insert(8, 80));
        assert!(!t.insert(5, 99));
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.len(), 3);
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.get(5), None);
        assert_eq!(t.iter_snapshot(), vec![(3, 30), (8, 80)]);
        t.check_consistency(false).unwrap();
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
    fn ascending_descending_and_lookup() {
        let t: NmBst<u64, u64, Volatile> = NmBst::new();
        for k in 0..200u64 {
            assert!(t.insert(k, k));
        }
        for k in (200..400u64).rev() {
            assert!(t.insert(k, k));
        }
        assert_eq!(t.check_consistency(false).unwrap(), 400);
        for k in 0..400u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn delete_to_empty_and_reuse() {
        let t: NmBst<u64, u64, NvTraverse<Noop>> = NmBst::new();
        for k in 0..50u64 {
            t.insert(k, k);
        }
        for k in 0..50u64 {
            assert!(t.remove(k), "remove({k})");
        }
        assert!(t.is_empty());
        assert!(t.insert(7, 70));
        assert_eq!(t.get(7), Some(70));
        t.check_consistency(true).unwrap();
    }

    #[test]
    fn matches_model_on_random_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let t: NmBst<u64, u64, NvTraverse<Noop>> = NmBst::new();
        let mut model = ModelSet::new();
        for i in 0..4000u64 {
            let k = rng.random_range(0..128);
            match rng.random_range(0..3) {
                0 => assert_eq!(t.insert(k, i), model.insert(k, i), "insert({k})"),
                1 => assert_eq!(t.remove(k), model.remove(k), "remove({k})"),
                _ => assert_eq!(t.get(k), model.get(k), "get({k})"),
            }
        }
        let pairs: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(t.iter_snapshot(), pairs);
        t.check_consistency(false).unwrap();
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let t: NmBst<u64, u64, NvTraverse<Clwb>> = NmBst::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let base = tid * 500;
                    for k in base..base + 500 {
                        assert!(t.insert(k, k));
                    }
                    for k in (base..base + 500).step_by(2) {
                        assert!(t.remove(k));
                    }
                });
            }
        });
        assert_eq!(t.check_consistency(false).unwrap(), 1000);
    }

    #[test]
    fn concurrent_contended_stress() {
        use rand::prelude::*;
        let t: NmBst<u64, u64, NvTraverse<Clwb>> = NmBst::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(tid + 100);
                    for _ in 0..3000 {
                        let k = rng.random_range(0..64);
                        match rng.random_range(0..10) {
                            0..=3 => {
                                t.insert(k, k);
                            }
                            4..=6 => {
                                t.remove(k);
                            }
                            _ => {
                                t.get(k);
                            }
                        }
                    }
                });
            }
        });
        t.check_consistency(false).unwrap();
    }

    #[test]
    fn recovery_completes_injected_delete() {
        // Flag a leaf's edge by hand (crash between injection and cleanup);
        // recovery must finish the deletion.
        let t: NmBst<u64, u64, NvTraverse<Noop>> = NmBst::new();
        for k in [10u64, 5, 15] {
            t.insert(k, k);
        }
        unsafe {
            // Walk to leaf 5's parent edge and flag it.
            let mut parent = t.root;
            let mut cell = &(*parent).left;
            let mut node = cell.load().ptr();
            while !(*node).leaf.load() {
                parent = node;
                cell = if NmBst::<u64, u64, NvTraverse<Noop>>::goes_left(5, parent) {
                    &(*parent).left
                } else {
                    &(*parent).right
                };
                node = cell.load().ptr();
            }
            assert_eq!((*node).key.load(), 5);
            let w = cell.load();
            cell.store(w.with_mark()); // FLAG
        }
        assert!(t.check_consistency(true).is_err());
        t.recover();
        assert_eq!(t.get(5), None, "recovery must complete the deletion");
        t.check_consistency(true).unwrap();
        assert!(t.insert(5, 55));
    }
}
